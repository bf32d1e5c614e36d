//! The GEMM compute core: a cache-blocked, parallel `sgemm` kernel
//! plus the im2col/col2im packing that turns convolution into matrix
//! multiply.
//!
//! Every FLOP-heavy path in the crate funnels into [`sgemm`], one
//! product per layer for the whole batch: [`crate::layers::Conv2d`]
//! lowers its packed `[c, n, h, w]` batch with [`im2col_packed_into`]
//! and multiplies against the filter bank, and [`crate::layers::Dense`]
//! multiplies its `[n, in_dim]` row matrix by the transposed weights
//! directly — a batch of one included. The kernel follows the classic
//! BLIS/GotoBLAS decomposition: `NC`-wide column panels of B, `KC`-deep
//! rank-k updates, `MC`-tall row blocks of A, operands repacked into
//! `MR x NR` micro-panels so the
//! innermost micro-kernel reads contiguously and runs as an explicit
//! SIMD 8x8 accumulator ([`simd`]: AVX2/FMA or NEON where the CPU has
//! them, a portable `mul_add` twin everywhere, chosen once per process
//! at runtime). Rows of C are disjoint, so every parallelisable regime
//! splits them into contiguous spans — one per [`threading`] slot —
//! and fans the spans out over `rayon::scope`; each span packs its own
//! A blocks (no false sharing), the B panel is packed once on the
//! calling thread and shared read-only. How many slots a call may use
//! is the ambient [`GemmThreading`] policy: training runs `Auto` (all
//! pool workers), server workers pin `Serial` (the workers are already
//! the parallelism there). The span partition never changes any
//! element's accumulation order — see [`threading`] for the
//! bit-determinism contract.
//!
//! Scratch buffers are reused across calls through thread-local pools:
//! the layers' im2col matrices and activations through [`Scratch`], the
//! packed path's panels through two slots of their own (B on the calling
//! thread, A on whichever thread runs a span), because `sgemm` itself
//! runs inside the layers' [`with_scratch`] closures. Both *move* the
//! buffers out for the duration of the closure instead of holding a
//! borrow — re-entrant calls (e.g. under a work-stealing scheduler)
//! simply see an empty pool and allocate.

pub mod simd;
pub mod threading;

pub use simd::{with_forced_kernel, KernelVariant};
use simd::{MicroKernel, MR, NR};
use std::cell::Cell;
use std::thread::LocalKey;
pub use threading::{
    current_gemm_threading, slots_probe_max, slots_probe_reset, with_gemm_threading, GemmThreading,
};

/// Whether a GEMM operand is consumed as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored (row-major).
    No,
    /// Use the transpose of the stored operand.
    Yes,
}

/// Row-block height (rows of C per A pack within a span).
const MC: usize = 64;
/// Rank-k update depth (rows of the packed B panel).
const KC: usize = 256;
/// Column-panel width (columns of the packed B panel).
const NC: usize = 1024;
/// Deepest inner dimension the axpy sweep takes. Every im2col
/// convolution of the Figure 10 schedule (`k = in_ch * ksize^2`, at most
/// 288) and every batch-summed dense gradient of a training batch is
/// below it; whether such a product runs as an axpy sweep is then
/// decided by C's shape (see [`AXPY_MIN_N`]).
const SMALL_K: usize = 384;
/// Narrowest C (columns) the axpy sweep takes when C is at least one
/// micro-tile (`MR` rows) tall. Narrower C goes to the packed path: the
/// sweep's inner loop runs along one row of C, so at conv3's
/// batch-of-one `n = 4` it cannot vectorise, while the 8x8 micro-kernel
/// keeps 64 accumulators busy whatever `n` is. C shorter than a tile
/// stays on the sweep at any width: a packed tile would be mostly empty.
/// From the single-thread crossover sweep in DESIGN §4.1 (`n` x `k` in
/// {9, 72, 144, 288} x `m` in {1..64}, plus the served models' Figure 10
/// shapes at batch 1, 8 and 32): 512 is the narrowest width at which the
/// sweep beats the micro-kernel for every `k = 9` row (conv1's planes,
/// all at least 1024 wide), and it keeps every batch-32 conv2 on the
/// sweep, which wins there once training's pool threads split the rows.
const AXPY_MIN_N: usize = 512;

/// `C = alpha * op(A) . op(B) + beta * C` in single precision.
///
/// `op(A)` is `m x k` and `op(B)` is `k x n`; all buffers are dense
/// row-major. With `ta == Trans::No` the `a` buffer is `m x k`, with
/// `ta == Trans::Yes` it is the stored transpose `k x m` (and
/// symmetrically for `b`). `beta` is applied to `C` exactly once, so
/// `beta == 0.0` overwrites any garbage (including NaN) in `c`.
#[allow(clippy::too_many_arguments)]
pub fn sgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A buffer must hold m*k elements");
    assert_eq!(b.len(), k * n, "B buffer must hold k*n elements");
    assert_eq!(c.len(), m * n, "C buffer must hold m*n elements");
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    if n == 1 {
        // Matrix-vector product: op(B) is a contiguous k-vector under
        // either transpose flag.
        matvec(m, k, alpha, a, ta, b, c);
        return;
    }
    if k == 1 {
        // Rank-1 update: op(A) is a contiguous m-vector and op(B) a
        // contiguous n-vector under either transpose flag.
        for i in 0..m {
            let av = alpha * a[i];
            let row = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in row.iter_mut().zip(b) {
                *cv += av * bv;
            }
        }
        return;
    }
    if ta == Trans::No && tb == Trans::Yes && m * n <= 64 * 1024 {
        // Inner-product regime: both operands walk `k` contiguously, so
        // each C element is a straight dot product — no packing needed
        // (the blocked path's packing costs more than the whole product
        // at these shapes). This is the shape of every weight-gradient
        // GEMM (`gW = gout . act^T` with the batch reduction fused into
        // `k`), where C is tiny and `k` is huge; the `m * n` cap keeps
        // genuinely large C matrices on the blocked path where B panels
        // get reused. Sixteen lane-wise partial sums keep enough
        // independent dependency chains in flight for the loop to
        // vectorise and hide FP-add latency; a plain (or 4-way) dot is
        // one serial chain and runs several times slower. The huge-`k`
        // rows are walked in `DOT_KC`-element chunks: every `(i, j)`
        // pair touches each chunk while it is cache-resident, where
        // unchunked dots would re-stream whole megabyte-scale rows
        // from memory `n` (resp. `m`) times over.
        // Rows are fanned out in contiguous spans, one per threading
        // slot; the chunked `p0` loop runs *inside* each span so every
        // element still accumulates its chunks in the same order at
        // any slot count.
        const DOT_KC: usize = 16 * 1024;
        let spans = threading::partition_rows(m, threading::effective_slots(m));
        threading::for_each_row_span(c, n, &spans, |r0, cblk| {
            for p0 in (0..k).step_by(DOT_KC) {
                let p1 = (p0 + DOT_KC).min(k);
                for (i, crow) in cblk.chunks_mut(n).enumerate() {
                    let row = r0 + i;
                    let ach = &a[row * k + p0..row * k + p1];
                    for (j, cv) in crow.iter_mut().enumerate() {
                        *cv += alpha * lane_dot(ach, &b[j * k + p0..j * k + p1]);
                    }
                }
            }
        });
        return;
    }
    if k <= SMALL_K && tb == Trans::No && (n >= AXPY_MIN_N || m < MR) {
        // Short-inner-dimension regime for wide or short C (im2col
        // convolutions over whole output planes: k is in_ch * ksize^2,
        // n is the plane; and C shorter than one micro-tile, which would
        // leave most of every packed tile empty). Packing into
        // micro-panels costs more than it saves here; a row-per-output
        // sweep of contiguous axpy updates streams B at full width.
        // Four rank-1 updates are fused per sweep so each C row is
        // read/written k/4 times instead of k. The column dimension is
        // tiled so the B tile (k rows x AXPY_NB) stays cache-resident
        // while every C row revisits it — batched calls have B far
        // larger than cache, and untiled sweeps would re-stream it
        // from memory once per output row. Tiling never splits the k
        // loop, so accumulation order per element is unchanged.
        // Rows of C are disjoint, so fan them out in contiguous spans,
        // one per threading slot; the column tiling runs inside each
        // span and never splits the k loop, so accumulation order per
        // element is independent of the slot count too.
        const AXPY_NB: usize = 1024;
        let spans = threading::partition_rows(m, threading::effective_slots(m));
        threading::for_each_row_span(c, n, &spans, |r0, cblk| {
            for j0 in (0..n).step_by(AXPY_NB) {
                let j1 = n.min(j0 + AXPY_NB);
                for (di, crow) in cblk.chunks_mut(n).enumerate() {
                    let i = r0 + di;
                    let crow = &mut crow[j0..j1];
                    let at = |p: usize| {
                        alpha
                            * match ta {
                                Trans::No => a[i * k + p],
                                Trans::Yes => a[p * m + i],
                            }
                    };
                    let nb = j1 - j0;
                    let mut p = 0;
                    while p + 4 <= k {
                        let (a0, a1, a2, a3) = (at(p), at(p + 1), at(p + 2), at(p + 3));
                        let b0 = &b[p * n + j0..][..nb];
                        let b1 = &b[(p + 1) * n + j0..][..nb];
                        let b2 = &b[(p + 2) * n + j0..][..nb];
                        let b3 = &b[(p + 3) * n + j0..][..nb];
                        for (t, cv) in crow.iter_mut().enumerate() {
                            *cv = b3[t].mul_add(
                                a3,
                                b2[t].mul_add(a2, b1[t].mul_add(a1, b0[t].mul_add(a0, *cv))),
                            );
                        }
                        p += 4;
                    }
                    while p < k {
                        let av = at(p);
                        let brow = &b[p * n + j0..][..nb];
                        for (t, cv) in crow.iter_mut().enumerate() {
                            *cv = brow[t].mul_add(av, *cv);
                        }
                        p += 1;
                    }
                }
            }
        });
        return;
    }

    // Packed blocked path. The micro-kernel variant and the slot
    // partition are both resolved here on the calling thread (the
    // thread-local kernel override and threading policy must not be
    // re-read inside pool workers); the kernel crosses into the spans
    // as a plain fn pointer. Each span packs its own A micro-panels
    // into its thread's A panel, so packed panels are never falsely
    // shared, while the B panel is packed once per (jc, pc) into the
    // calling thread's B panel and read by every span. Per-element
    // accumulation order is one KC panel at a time, `p` ascending
    // inside the micro-kernel tile: a function of the blocking
    // constants only, identical at every slot count.
    let kernel: MicroKernel = simd::active_kernel();
    let spans = threading::partition_rows(m, threading::effective_slots(m));
    with_panel(&B_PANEL, |bpack| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(b, tb, k, n, pc, kc, jc, nc, bpack);
                let bpack = &*bpack;
                threading::for_each_row_span(c, n, &spans, |r0, cblk| {
                    let rows = cblk.len() / n;
                    with_panel(&A_PANEL, |apack| {
                        for ic in (0..rows).step_by(MC) {
                            let mc = MC.min(rows - ic);
                            pack_a(a, ta, m, k, r0 + ic, mc, pc, kc, apack);
                            for sj in 0..nc.div_ceil(NR) {
                                let j0 = jc + sj * NR;
                                let nj = NR.min(jc + nc - j0);
                                let bp = &bpack[sj * kc * NR..][..kc * NR];
                                for si in 0..mc.div_ceil(MR) {
                                    let i0 = ic + si * MR;
                                    let ni = MR.min(mc - si * MR);
                                    let ap = &apack[si * kc * MR..][..kc * MR];
                                    kernel(kc, ap, bp, alpha, cblk, n, i0, j0, ni, nj);
                                }
                            }
                        }
                    });
                });
            }
        }
    });
}

/// `c += alpha * op(A) . x` for a single output column.
fn matvec(m: usize, k: usize, alpha: f32, a: &[f32], ta: Trans, x: &[f32], c: &mut [f32]) {
    match ta {
        Trans::No => {
            for (i, cv) in c.iter_mut().enumerate() {
                let row = &a[i * k..(i + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &xv) in row.iter().zip(x) {
                    acc = av.mul_add(xv, acc);
                }
                *cv += alpha * acc;
            }
        }
        Trans::Yes => {
            // a is stored k x m; accumulate one scaled row at a time so
            // the inner loop stays contiguous.
            for (p, &xv) in x.iter().enumerate() {
                let s = alpha * xv;
                let row = &a[p * m..(p + 1) * m];
                for (cv, &av) in c.iter_mut().zip(row) {
                    *cv = av.mul_add(s, *cv);
                }
            }
        }
    }
}

/// Packs `op(A)[ic..ic+mc][pc..pc+kc]` into `MR`-row micro-panels,
/// zero-padding the ragged bottom strip.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    a: &[f32],
    ta: Trans,
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    let strips = mc.div_ceil(MR);
    out.clear();
    out.resize(strips * kc * MR, 0.0);
    for s in 0..strips {
        let i0 = ic + s * MR;
        let ni = MR.min(ic + mc - i0);
        let dst = &mut out[s * kc * MR..][..kc * MR];
        match ta {
            Trans::No if ni == MR => {
                // A full strip: read its MR rows side by side and write
                // each packed `p` column in one contiguous run, rather
                // than scattering one row at a time at stride MR.
                let rows: [&[f32]; MR] = std::array::from_fn(|ii| &a[(i0 + ii) * k + pc..][..kc]);
                for (p, col) in dst.chunks_exact_mut(MR).enumerate() {
                    for (d, row) in col.iter_mut().zip(&rows) {
                        *d = row[p];
                    }
                }
            }
            Trans::No => {
                for ii in 0..ni {
                    let row = &a[(i0 + ii) * k + pc..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        dst[p * MR + ii] = v;
                    }
                }
            }
            Trans::Yes => {
                for (p, d) in dst.chunks_exact_mut(MR).enumerate() {
                    copy_strip_row::<MR>(d, &a[(pc + p) * m + i0..], ni);
                }
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc][jc..jc+nc]` into `NR`-column micro-panels,
/// zero-padding the ragged right strip.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    b: &[f32],
    tb: Trans,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    out: &mut Vec<f32>,
) {
    let strips = nc.div_ceil(NR);
    out.clear();
    out.resize(strips * kc * NR, 0.0);
    for s in 0..strips {
        let j0 = jc + s * NR;
        let nj = NR.min(jc + nc - j0);
        let dst = &mut out[s * kc * NR..][..kc * NR];
        match tb {
            Trans::No => {
                for (p, d) in dst.chunks_exact_mut(NR).enumerate() {
                    copy_strip_row::<NR>(d, &b[(pc + p) * n + j0..], nj);
                }
            }
            Trans::Yes => {
                for jj in 0..nj {
                    let col = &b[(j0 + jj) * k + pc..][..kc];
                    for (p, &v) in col.iter().enumerate() {
                        dst[p * NR + jj] = v;
                    }
                }
            }
        }
    }
}

/// Copies the `live` leading elements of `src` into one `W`-wide
/// packed row `dst`. A full row is a fixed-size copy, which compiles to
/// a couple of vector moves where a variable-length one calls `memcpy`
/// per row.
fn copy_strip_row<const W: usize>(dst: &mut [f32], src: &[f32], live: usize) {
    if live == W {
        dst[..W].copy_from_slice(&src[..W]);
    } else {
        dst[..live].copy_from_slice(&src[..live]);
    }
}

/// Dot product with sixteen independent fused partial sums, so the
/// accumulation vectorises and pipelines instead of forming one serial
/// latency chain. Slice-level core of the inner-product GEMM path,
/// reused directly by the fused per-sample weight-gradient
/// accumulation. `mul_add` lowers to a fused instruction under the
/// workspace's `target-cpu=native` build; rustc never contracts
/// `a * b + c` on its own, so the explicit call halves the arithmetic
/// uops (the same reasoning applies to every kernel in this module).
pub fn lane_dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    let mut pa = a.chunks_exact(16);
    let mut pb = b.chunks_exact(16);
    for (ca, cb) in (&mut pa).zip(&mut pb) {
        for (l, s) in acc.iter_mut().enumerate() {
            *s = ca[l].mul_add(cb[l], *s);
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in pa.remainder().iter().zip(pb.remainder()) {
        tail = x.mul_add(*y, tail);
    }
    acc.iter().sum::<f32>() + tail
}

/// Sum of a slice with sixteen independent partial sums, so the adds
/// vectorise and pipeline instead of forming one serial latency chain.
/// The batched bias gradients reduce rows of `n * oh * ow` elements —
/// a naive sequential sum is the latency-bound outlier in an
/// otherwise GEMM-shaped backward pass.
pub fn lane_sum(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; 16];
    let mut chunks = xs.chunks_exact(16);
    for ch in &mut chunks {
        for (s, &v) in acc.iter_mut().zip(ch) {
            *s += v;
        }
    }
    let tail: f32 = chunks.remainder().iter().sum();
    acc.iter().sum::<f32>() + tail
}

/// Convolution output extent for an `h x w` input, square `ksize`
/// kernel, `stride`, and symmetric zero `pad`.
pub fn conv_out_hw(h: usize, w: usize, ksize: usize, stride: usize, pad: usize) -> (usize, usize) {
    (
        (h + 2 * pad - ksize) / stride + 1,
        (w + 2 * pad - ksize) / stride + 1,
    )
}

/// Lowers one `[c, h, w]` image into im2col layout.
///
/// Writes the `c*ksize*ksize x oh*ow` column matrix of `x` into `col`
/// at row stride `ld` and column offset `col_off`: entry
/// `((ic*ksize + ky)*ksize + kx, oy*ow + ox)` holds
/// `x[ic, oy*stride + ky - pad, ox*stride + kx - pad]`, or `0.0` where
/// the receptive field hangs over the border. Every cell of the block
/// is written, so `col` may hold stale data from a previous use. The
/// `ld`/`col_off` pair places the block inside a wider matrix.
///
/// The layers lower whole batches through [`im2col_packed_into`]; this
/// single-image form is kept because the repository benchmark times it
/// (`nn.im2col_us` in `perfbench/`).
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    col: &mut [f32],
    ld: usize,
    col_off: usize,
) {
    assert_eq!(x.len(), c * h * w, "input buffer shape mismatch");
    let (oh, ow) = conv_out_hw(h, w, ksize, stride, pad);
    assert!(col_off + oh * ow <= ld, "column block exceeds row stride");
    let mut padded = Vec::new();
    for ic in 0..c {
        let xc = &x[ic * h * w..(ic + 1) * h * w];
        im2col_channel(
            xc,
            ic,
            h,
            w,
            ksize,
            stride,
            pad,
            oh,
            ow,
            col,
            ld,
            col_off,
            &mut padded,
        );
    }
}

/// Lowers a packed `[c, n, h, w]` batch (every channel holds its `n`
/// per-sample planes side by side, the layout the batched inference
/// path keeps between convolutional layers) into one
/// `c*ksize*ksize x n*oh*ow` im2col matrix; sample `si`'s columns land
/// in the block starting at `si*oh*ow`.
#[allow(clippy::too_many_arguments)]
pub fn im2col_packed_into(
    x: &[f32],
    c: usize,
    n: usize,
    h: usize,
    w: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    col: &mut [f32],
) {
    assert_eq!(x.len(), c * n * h * w, "input buffer shape mismatch");
    let (oh, ow) = conv_out_hw(h, w, ksize, stride, pad);
    let ld = n * oh * ow;
    let mut padded = Vec::new();
    for si in 0..n {
        for ic in 0..c {
            let xc = &x[(ic * n + si) * h * w..][..h * w];
            im2col_channel(
                xc,
                ic,
                h,
                w,
                ksize,
                stride,
                pad,
                oh,
                ow,
                col,
                ld,
                si * oh * ow,
                &mut padded,
            );
        }
    }
}

/// Writes channel `ic`'s `ksize*ksize` im2col rows for one `[h, w]`
/// plane `xc`. Shared body of [`im2col_into`] and
/// [`im2col_packed_into`]; `padded` is the caller's border buffer, kept
/// across the channels of one call.
#[allow(clippy::too_many_arguments)]
fn im2col_channel(
    xc: &[f32],
    ic: usize,
    h: usize,
    w: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    col: &mut [f32],
    ld: usize,
    col_off: usize,
    padded: &mut Vec<f32>,
) {
    if stride == 1 && ow == w {
        for ky in 0..ksize {
            for kx in 0..ksize {
                let r = (ic * ksize + ky) * ksize + kx;
                let row = &mut col[r * ld + col_off..][..oh * ow];
                // "Same" convolution: every output row is exactly one
                // input row shifted by `kx - pad`, and consecutive rows
                // advance by `w` on both sides — so the whole vertical
                // run of valid rows is ONE contiguous copy. The copy
                // bleeds neighbouring-row values into the padded edge
                // columns, which the fixup loop below zeroes (at most
                // two scalar writes per row); that replaces `oh`
                // short per-row copies with one streaming memcpy.
                let ylo = pad.saturating_sub(ky);
                let yhi = (h + pad - ky).min(oh);
                row[..ylo * ow].fill(0.0);
                row[yhi * ow..].fill(0.0);
                if yhi <= ylo {
                    continue;
                }
                let (lo, hi) = valid_ox_range(w, ow, kx, stride, pad);
                let d0 = ylo * ow + lo;
                let d1 = (yhi - 1) * ow + hi;
                let s0 = (ylo + ky - pad) * w + lo + kx - pad;
                row[d0..d1].copy_from_slice(&xc[s0..s0 + (d1 - d0)]);
                for oy in ylo..yhi {
                    row[oy * ow..oy * ow + lo].fill(0.0);
                    row[oy * ow + hi..(oy + 1) * ow].fill(0.0);
                }
            }
        }
        return;
    }
    // Every other geometry (the strided convolutions, unpadded ones):
    // copy the plane once into a zero-bordered `(h + 2*pad) x (w +
    // 2*pad)` buffer, so each im2col row segment is a branch-free
    // strided gather. Clipping the receptive field per output row
    // instead costs several short fills and copies per segment, which
    // at a batch-of-one conv3's two-wide rows is most of the layer's
    // lowering. The border is zeroed once per call and never written.
    let pw = w + 2 * pad;
    if padded.len() != (h + 2 * pad) * pw {
        padded.clear();
        padded.resize((h + 2 * pad) * pw, 0.0);
    }
    for (y, src) in xc.chunks_exact(w).enumerate() {
        padded[(y + pad) * pw + pad..][..w].copy_from_slice(src);
    }
    for ky in 0..ksize {
        for kx in 0..ksize {
            let r = (ic * ksize + ky) * ksize + kx;
            let row = &mut col[r * ld + col_off..][..oh * ow];
            for (oy, dst) in row.chunks_exact_mut(ow).enumerate() {
                let base = (oy * stride + ky) * pw + kx;
                let src = &padded[base..base + (ow - 1) * stride + 1];
                for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                    *d = v;
                }
            }
        }
    }
}

/// Scatter-adds an im2col-layout gradient of a packed `[c, n, h, w]`
/// batch back onto the image grid: the adjoint of
/// [`im2col_packed_into`]. `gin` accumulates (`+=`) and must be zeroed
/// by the caller when a fresh gradient is wanted.
#[allow(clippy::too_many_arguments)]
pub fn col2im_packed_into(
    col: &[f32],
    c: usize,
    n: usize,
    h: usize,
    w: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    gin: &mut [f32],
) {
    assert_eq!(gin.len(), c * n * h * w, "output buffer shape mismatch");
    let (oh, ow) = conv_out_hw(h, w, ksize, stride, pad);
    let ld = n * oh * ow;
    for si in 0..n {
        for ic in 0..c {
            let gc = &mut gin[(ic * n + si) * h * w..][..h * w];
            col2im_channel(
                gc,
                ic,
                h,
                w,
                ksize,
                stride,
                pad,
                oh,
                ow,
                col,
                ld,
                si * oh * ow,
            );
        }
    }
}

/// Scatter-adds channel `ic`'s `ksize*ksize` im2col rows back onto one
/// `[h, w]` plane `gc`: the body of [`col2im_packed_into`].
#[allow(clippy::too_many_arguments)]
fn col2im_channel(
    gc: &mut [f32],
    ic: usize,
    h: usize,
    w: usize,
    ksize: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    col: &[f32],
    ld: usize,
    col_off: usize,
) {
    for ky in 0..ksize {
        for kx in 0..ksize {
            let r = (ic * ksize + ky) * ksize + kx;
            let row = &col[r * ld + col_off..][..oh * ow];
            for oy in 0..oh {
                let iy = (oy * stride + ky) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                let src = &row[oy * ow..(oy + 1) * ow];
                let dst = &mut gc[iy as usize * w..(iy as usize + 1) * w];
                let (lo, hi) = valid_ox_range(w, ow, kx, stride, pad);
                if stride == 1 {
                    // Contiguous mirror of the im2col copy: a straight
                    // slice accumulate, which vectorises.
                    let sx = lo + kx - pad;
                    for (d, &s) in dst[sx..sx + (hi - lo)].iter_mut().zip(&src[lo..hi]) {
                        *d += s;
                    }
                } else if stride == 2 && hi > lo {
                    // Strided scatter as a pair-wise interleave so the
                    // accumulate vectorises, mirroring the im2col
                    // deinterleave.
                    let sx = 2 * lo + kx - pad;
                    let d = &mut dst[sx..sx + 2 * (hi - lo) - 1];
                    let s = &src[lo..hi];
                    for (dp, &sv) in d.chunks_exact_mut(2).zip(s) {
                        dp[0] += sv;
                    }
                    d[2 * (hi - lo - 1)] += s[hi - lo - 1];
                } else {
                    for ox in lo..hi {
                        dst[ox * stride + kx - pad] += src[ox];
                    }
                }
            }
        }
    }
}

/// Output-column range `[lo, hi)` whose source column
/// `ox*stride + kx - pad` lands inside `[0, w)`.
fn valid_ox_range(w: usize, ow: usize, kx: usize, stride: usize, pad: usize) -> (usize, usize) {
    let lo = if pad > kx {
        (pad - kx).div_ceil(stride).min(ow)
    } else {
        0
    };
    let hi = if w + pad > kx {
        ((w - 1 + pad - kx) / stride + 1).min(ow)
    } else {
        0
    };
    (lo, hi.max(lo))
}

/// Reusable per-thread workspace for the convolution lowering.
#[derive(Debug, Default)]
pub struct Scratch {
    /// im2col matrix of the layer input.
    pub col: Vec<f32>,
    /// Second column matrix (gradient w.r.t. the im2col output).
    pub aux: Vec<f32>,
    /// Ping/pong activation buffers for the packed batched forward
    /// walk. Batch-sized activations sit above the allocator's mmap
    /// threshold, so freshly allocating them every layer costs a page
    /// fault per 4 KiB; recycling keeps the pages warm.
    pub ping: Vec<f32>,
    /// See [`Scratch::ping`].
    pub pong: Vec<f32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Option<Scratch>> =
        const { std::cell::RefCell::new(None) };
    /// The packed path's B panel, filled on the thread that calls
    /// `sgemm`.
    static B_PANEL: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// The packed path's A micro-panels, filled on whichever thread runs
    /// a row span.
    static A_PANEL: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with one of this thread's packing panels, moved out of
/// `slot` for the duration (a nested call sees an empty panel and
/// allocates, like [`with_scratch`]) and put back afterwards.
fn with_panel<R>(slot: &'static LocalKey<Cell<Vec<f32>>>, f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut panel = slot.take();
    let r = f(&mut panel);
    slot.set(panel);
    r
}

/// Runs `f` with this thread's scratch workspace, returning the
/// buffers to the pool afterwards so repeated layer calls reuse their
/// allocations. The workspace is moved out (not borrowed) for the
/// duration of `f`, so nested or re-entrant calls are safe — they just
/// start from empty buffers.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut s = SCRATCH.with(|c| c.borrow_mut().take()).unwrap_or_default();
    let r = f(&mut s);
    SCRATCH.with(|c| *c.borrow_mut() = Some(s));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Reference triple loop in f64 (order-insensitive to tolerance).
    #[allow(clippy::too_many_arguments)]
    fn naive_gemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        ta: Trans,
        b: &[f32],
        tb: Trans,
        beta: f32,
        c: &mut [f32],
    ) {
        let at = |i: usize, p: usize| match ta {
            Trans::No => a[i * k + p],
            Trans::Yes => a[p * m + i],
        };
        let bt = |p: usize, j: usize| match tb {
            Trans::No => b[p * n + j],
            Trans::Yes => b[j * k + p],
        };
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += f64::from(at(i, p)) * f64::from(bt(p, j));
                }
                let old = if beta == 0.0 {
                    0.0
                } else {
                    beta * c[i * n + j]
                };
                c[i * n + j] = old + alpha * acc as f32;
            }
        }
    }

    fn rand_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= tol * (1.0 + w.abs()),
                "{what}[{i}]: {g} vs {w}"
            );
        }
    }

    #[test]
    fn sgemm_matches_naive_across_block_boundaries() {
        // Sizes straddling MR/NR, MC, KC and NC edges, in both the
        // small-k axpy regime (k <= SMALL_K) and the packed regime.
        let cases = [
            (1, 1, 1),
            (7, 5, 9),
            (8, 8, 8),
            (9, 17, 8),
            (13, 17, 300),  // axpy regime, wider than NR
            (70, 30, 260),  // axpy regime, crosses MC
            (3, 1030, 40),  // axpy regime, crosses NC
            (13, 17, 400),  // packed regime, crosses KC
            (70, 30, 390),  // packed regime, crosses MC and KC
            (3, 1030, 385), // packed regime, crosses NC
            (65, 9, 513),   // packed regime, two KC panels + ragged tiles
        ];
        let mut rng = StdRng::seed_from_u64(42);
        for &(m, n, k) in &cases {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let mut c = rand_vec(&mut rng, m * n);
            let mut want = c.clone();
            sgemm(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
            naive_gemm(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut want);
            assert_close(&c, &want, 1e-4, &format!("C({m}x{n}x{k})"));
        }
    }

    #[test]
    fn sgemm_handles_all_transpose_combinations() {
        // k = 70 exercises the axpy regime (and, for No/Yes, the dot
        // fast path), k = 400 the packed one; (80, 900, 70) pushes
        // m * n past the dot path's cap so No/Yes also lands on the
        // packed kernel.
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, n, k) in &[(19usize, 23usize, 70usize), (19, 23, 400), (80, 900, 70)] {
            for &ta in &[Trans::No, Trans::Yes] {
                for &tb in &[Trans::No, Trans::Yes] {
                    let a = rand_vec(&mut rng, m * k);
                    let b = rand_vec(&mut rng, k * n);
                    let mut c = vec![0.0f32; m * n];
                    let mut want = vec![0.0f32; m * n];
                    sgemm(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut c);
                    naive_gemm(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut want);
                    assert_close(&c, &want, 1e-4, &format!("C({m}x{n}x{k},{ta:?},{tb:?})"));
                }
            }
        }
    }

    #[test]
    fn sgemm_applies_alpha_and_beta_once() {
        let (m, n, k) = (12, 34, 300); // two KC panels: beta must not reapply
        let mut rng = StdRng::seed_from_u64(3);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut c = rand_vec(&mut rng, m * n);
        let mut want = c.clone();
        sgemm(m, n, k, 0.5, &a, Trans::No, &b, Trans::No, 2.0, &mut c);
        naive_gemm(m, n, k, 0.5, &a, Trans::No, &b, Trans::No, 2.0, &mut want);
        assert_close(&c, &want, 1e-4, "alpha/beta");
    }

    #[test]
    fn sgemm_beta_zero_overwrites_nan() {
        let (m, n, k) = (4, 5, 6);
        let mut rng = StdRng::seed_from_u64(5);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut c = vec![f32::NAN; m * n];
        sgemm(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c);
        assert!(c.iter().all(|v| v.is_finite()), "NaN survived beta = 0");
    }

    #[test]
    fn matvec_fast_path_matches_naive_both_transposes() {
        let (m, k) = (37, 90);
        let mut rng = StdRng::seed_from_u64(9);
        for &ta in &[Trans::No, Trans::Yes] {
            let a = rand_vec(&mut rng, m * k);
            let x = rand_vec(&mut rng, k);
            let mut c = rand_vec(&mut rng, m);
            let mut want = c.clone();
            sgemm(m, 1, k, 1.5, &a, ta, &x, Trans::No, 1.0, &mut c);
            naive_gemm(m, 1, k, 1.5, &a, ta, &x, Trans::No, 1.0, &mut want);
            assert_close(&c, &want, 1e-4, &format!("matvec({ta:?})"));
        }
    }

    #[test]
    fn im2col_center_column_is_the_full_receptive_field() {
        // 3x3 input, 3x3 kernel, stride 1, pad 1: the centre output's
        // column is the whole image; the corner output's column has the
        // padded positions zeroed.
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let (oh, ow) = conv_out_hw(3, 3, 3, 1, 1);
        assert_eq!((oh, ow), (3, 3));
        let mut col = vec![f32::NAN; 9 * 9];
        im2col_into(&x, 1, 3, 3, 3, 1, 1, &mut col, 9, 0);
        let center: Vec<f32> = (0..9).map(|r| col[r * 9 + 4]).collect();
        assert_eq!(center, x);
        let corner: Vec<f32> = (0..9).map(|r| col[r * 9]).collect();
        assert_eq!(corner, vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn packed_col2im_is_the_adjoint_of_packed_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y over the
        // `[c, n, h, w]` batch layout the training path scatters into —
        // pins the scatter-add against the gather over every stride/pad
        // case, batches of one included.
        let mut rng = StdRng::seed_from_u64(29);
        for &(c, n, h, w, ksize, stride, pad) in &[
            (2usize, 3usize, 6usize, 6usize, 3usize, 1usize, 1usize),
            (1, 4, 7, 5, 3, 2, 1),
            (3, 1, 8, 8, 3, 1, 1),
            (1, 1, 5, 7, 3, 1, 1),
            (2, 1, 6, 6, 3, 2, 1),
            (3, 2, 8, 5, 3, 1, 0),
            (1, 2, 7, 7, 5, 2, 2),
        ] {
            let (oh, ow) = conv_out_hw(h, w, ksize, stride, pad);
            let rows = c * ksize * ksize;
            let x = rand_vec(&mut rng, c * n * h * w);
            let y = rand_vec(&mut rng, rows * n * oh * ow);
            let mut col = vec![0.0f32; rows * n * oh * ow];
            im2col_packed_into(&x, c, n, h, w, ksize, stride, pad, &mut col);
            let lhs: f64 = col
                .iter()
                .zip(&y)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            let mut back = vec![0.0f32; c * n * h * w];
            col2im_packed_into(&y, c, n, h, w, ksize, stride, pad, &mut back);
            let rhs: f64 = x
                .iter()
                .zip(&back)
                .map(|(&a, &b)| f64::from(a) * f64::from(b))
                .sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
                "packed adjoint mismatch ({c},{n},{h},{w},k{ksize},s{stride},p{pad}): {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn packed_im2col_equals_its_definition_bitwise() {
        // Every cell against the doc formula: x[ic, oy*stride + ky - pad,
        // ox*stride + kx - pad], or 0.0 off the image. Covers the
        // same-convolution copy and the bordered gather (strides 1-3,
        // pads 0-2, kernels 1-5, odd and degenerate planes).
        let mut rng = StdRng::seed_from_u64(31);
        for &(c, n, h, w, ksize, stride, pad) in &[
            (1usize, 1usize, 32usize, 32usize, 3usize, 1usize, 1usize),
            (8, 1, 16, 16, 3, 2, 1),
            (16, 1, 4, 4, 3, 2, 1),
            (2, 3, 7, 5, 3, 2, 1),
            (2, 2, 6, 9, 3, 1, 0),
            (1, 2, 7, 7, 5, 2, 2),
            (3, 1, 8, 6, 3, 3, 1),
            (2, 1, 5, 5, 1, 2, 0),
            (1, 1, 2, 2, 3, 2, 1),
        ] {
            let (oh, ow) = conv_out_hw(h, w, ksize, stride, pad);
            let x = rand_vec(&mut rng, c * n * h * w);
            let ld = n * oh * ow;
            let mut col = vec![f32::NAN; c * ksize * ksize * ld];
            im2col_packed_into(&x, c, n, h, w, ksize, stride, pad, &mut col);
            for si in 0..n {
                for ic in 0..c {
                    for ky in 0..ksize {
                        for kx in 0..ksize {
                            let r = (ic * ksize + ky) * ksize + kx;
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let iy = (oy * stride + ky) as isize - pad as isize;
                                    let ix = (ox * stride + kx) as isize - pad as isize;
                                    let inside = (0..h as isize).contains(&iy)
                                        && (0..w as isize).contains(&ix);
                                    let want = if inside {
                                        x[((ic * n + si) * h + iy as usize) * w + ix as usize]
                                    } else {
                                        0.0
                                    };
                                    let got = col[r * ld + si * oh * ow + oy * ow + ox];
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "({c},{n},{h},{w},k{ksize},s{stride},p{pad}) \
                                         sample {si} row {r} at ({oy},{ox})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn batched_im2col_offsets_are_independent_blocks() {
        let mut rng = StdRng::seed_from_u64(23);
        let (c, h, w, ksize, stride, pad) = (2, 6, 6, 3, 1, 1);
        let (oh, ow) = conv_out_hw(h, w, ksize, stride, pad);
        let l = oh * ow;
        let rows = c * ksize * ksize;
        let x0 = rand_vec(&mut rng, c * h * w);
        let x1 = rand_vec(&mut rng, c * h * w);
        let mut big = vec![f32::NAN; rows * 2 * l];
        im2col_into(&x0, c, h, w, ksize, stride, pad, &mut big, 2 * l, 0);
        im2col_into(&x1, c, h, w, ksize, stride, pad, &mut big, 2 * l, l);
        let mut single = vec![0.0f32; rows * l];
        im2col_into(&x1, c, h, w, ksize, stride, pad, &mut single, l, 0);
        for r in 0..rows {
            assert_eq!(&big[r * 2 * l + l..][..l], &single[r * l..][..l]);
        }
    }

    #[test]
    fn with_scratch_reuses_and_survives_nesting() {
        with_scratch(|s| {
            s.col.resize(128, 1.0);
            // A nested call must not observe (or clobber) the outer
            // workspace.
            with_scratch(|inner| {
                assert!(inner.col.is_empty());
                inner.col.resize(4, 2.0);
            });
            assert_eq!(s.col.len(), 128);
        });
        // The outermost workspace went back to the pool last.
        with_scratch(|s| assert_eq!(s.col.len(), 128));
    }
}
