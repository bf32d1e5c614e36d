//! The threaded-GEMM acceptance battery: the parallel SIMD `sgemm`
//! must be *equivalent* (≤ 1e-4 against an f64 reference, any shape /
//! transpose / thread count), *deterministic* (bit-identical across
//! repeated runs AND across thread counts — the threading model
//! partitions rows without ever reordering any element's
//! accumulation), and *fully dispatched* (every micro-kernel variant
//! compiled on this host passes the same battery through the
//! test-only force hook, so no fallback path is dead untested code).

use dnnspmv_nn::gemm::{conv_out_hw, sgemm, Trans};
use dnnspmv_nn::{with_forced_kernel, with_gemm_threading, GemmThreading, KernelVariant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Thread counts every suite runs at (satellite requirement: 1–8).
const THREADS: [usize; 4] = [1, 2, 4, 8];

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

fn trans(bit: usize) -> Trans {
    if bit == 0 {
        Trans::No
    } else {
        Trans::Yes
    }
}

/// One full check: threaded sgemm at every thread count vs the f64
/// reference (≤ 1e-4) and vs each other (bit-identical).
#[allow(clippy::too_many_arguments)]
fn check_case(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    ta: Trans,
    tb: Trans,
    rng: &mut StdRng,
) -> Result<(), String> {
    let a = rand_vec(rng, m * k);
    let b = rand_vec(rng, k * n);
    let c0 = rand_vec(rng, m * n);
    let mut want = c0.clone();
    naive_gemm(m, n, k, alpha, &a, ta, &b, tb, beta, &mut want);
    let case = Case {
        m,
        n,
        k,
        alpha,
        beta,
        a: &a,
        ta,
        b: &b,
        tb,
        c0: &c0,
    };
    check_threads(&case, &want, &THREADS).map(drop)
}

/// One `sgemm` problem: `C = alpha * op(A) . op(B) + beta * C0`.
struct Case<'a> {
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    beta: f32,
    a: &'a [f32],
    ta: Trans,
    b: &'a [f32],
    tb: Trans,
    c0: &'a [f32],
}

/// Runs `case` at each thread count: every output within 1e-4 of
/// `want`, all bit-identical. Returns the output they agreed on.
fn check_threads(case: &Case, want: &[f32], threads: &[usize]) -> Result<Vec<f32>, String> {
    let Case {
        m,
        n,
        k,
        alpha,
        beta,
        a,
        ta,
        b,
        tb,
        c0,
    } = *case;
    let mut baseline: Option<Vec<f32>> = None;
    for &t in threads {
        let mut c = c0.to_vec();
        with_gemm_threading(GemmThreading::Fixed(t), || {
            sgemm(m, n, k, alpha, a, ta, b, tb, beta, &mut c)
        });
        for (i, (g, w)) in c.iter().zip(want).enumerate() {
            if (g - w).abs() > 1e-4 * (1.0 + w.abs()) {
                return Err(format!(
                    "C({m}x{n}x{k},{ta:?},{tb:?},t{t})[{i}]: {g} vs {w}"
                ));
            }
        }
        match &baseline {
            None => baseline = Some(c),
            Some(base) => {
                if let Some(i) = (0..c.len()).find(|&i| c[i].to_bits() != base[i].to_bits()) {
                    return Err(format!(
                        "C({m}x{n}x{k},{ta:?},{tb:?}) differs bitwise between \
                         {} and {t} threads at [{i}]: {} vs {}",
                        threads[0], base[i], c[i]
                    ));
                }
            }
        }
    }
    Ok(baseline.unwrap_or_default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomised equivalence: every shape/transpose draw must match
    /// the f64 reference at thread counts 1–8 and be bit-identical
    /// across them. `k` spans the dot (ta=No/tb=Yes), axpy (small k)
    /// and packed (k > 384) regimes; `m`/`n` cross the MR/NR=8 and
    /// MC=64 tile edges.
    #[test]
    fn sgemm_matches_reference_at_every_thread_count(
        (m, n, k) in (1usize..80, 1usize..90, 0usize..420),
        (tra, trb) in (0usize..2, 0usize..2),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(e) = check_case(m, n, k, 1.0, 0.0, trans(tra), trans(trb), &mut rng) {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Same property with accumulation (`beta = 1`) and scaling, so
    /// the once-only alpha/beta application holds under threading too.
    #[test]
    fn sgemm_alpha_beta_hold_at_every_thread_count(
        (m, n, k) in (1usize..40, 1usize..50, 1usize..300),
        (tra, trb) in (0usize..2, 0usize..2),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(e) = check_case(m, n, k, 0.75, 1.0, trans(tra), trans(trb), &mut rng) {
            return Err(TestCaseError::fail(e));
        }
    }
}

#[test]
fn degenerate_and_tile_edge_shapes_hold_at_every_thread_count() {
    // k = 0 (pure beta scaling), single-row/column outputs, exact
    // tile multiples and every off-by-one around MR/NR (8), MC (64),
    // KC (256), NC (1024) and the SMALL_K (384) regime switch.
    let cases = [
        (1usize, 1usize, 1usize),
        (1, 1, 0),
        (5, 9, 0),
        (1, 17, 40),
        (17, 1, 40),
        (1, 1, 400),
        (7, 9, 8),
        (8, 8, 8),
        (9, 7, 9),
        (63, 9, 100),
        (64, 9, 100),
        (65, 9, 100),
        (16, 16, 255),
        (16, 16, 256),
        (16, 16, 257),
        (9, 1023, 390),
        (9, 1024, 390),
        (9, 1025, 390),
        (12, 20, 383),
        (12, 20, 384),
        (12, 20, 385),
    ];
    let mut rng = StdRng::seed_from_u64(1234);
    for &(m, n, k) in &cases {
        for (tra, trb) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            check_case(m, n, k, 1.0, 0.5, trans(tra), trans(trb), &mut rng)
                .unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical_at_a_fixed_thread_count() {
    let mut rng = StdRng::seed_from_u64(77);
    // One shape per parallel regime: dot (No/Yes small C), axpy
    // (small k, No), packed (large k).
    let shapes = [
        (20usize, 30usize, 500usize, Trans::No, Trans::Yes),
        (33, 61, 72, Trans::No, Trans::No),
        (65, 70, 400, Trans::No, Trans::No),
    ];
    for &(m, n, k, ta, tb) in &shapes {
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        for t in THREADS {
            let mut runs = (0..3).map(|_| {
                let mut c = vec![0.0f32; m * n];
                with_gemm_threading(GemmThreading::Fixed(t), || {
                    sgemm(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut c)
                });
                c
            });
            let first = runs.next().expect("three runs");
            for (run, c) in runs.enumerate() {
                assert!(
                    c.iter()
                        .zip(&first)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "run {} at {t} threads differs bitwise ({m}x{n}x{k})",
                    run + 2
                );
            }
        }
    }
}

/// The documented cross-thread-count statement: *nothing* changes.
/// The span partition only decides which task computes which rows;
/// each element's reduction order is fixed by the blocking constants,
/// so outputs are bit-identical at 1, 2, 4 and 8 threads (this is
/// also asserted inside every randomized case above).
#[test]
fn outputs_are_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(99);
    let (m, n, k) = (66, 130, 413); // packed regime, ragged everywhere
    let a = rand_vec(&mut rng, m * k);
    let b = rand_vec(&mut rng, k * n);
    let reference = {
        let mut c = vec![0.0f32; m * n];
        with_gemm_threading(GemmThreading::Serial, || {
            sgemm(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c)
        });
        c
    };
    for t in [2usize, 3, 4, 5, 8, 16] {
        let mut c = vec![0.0f32; m * n];
        with_gemm_threading(GemmThreading::Fixed(t), || {
            sgemm(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c)
        });
        assert!(
            c.iter()
                .zip(&reference)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{t}-thread output differs bitwise from serial"
        );
    }
}

/// Dispatch battery: every micro-kernel variant compiled on this host
/// (and executable on its CPU) runs the equivalence + determinism
/// suite through the force-select hook. The portable fallback is
/// exercised even on hosts whose detection would always pick SIMD.
#[test]
fn every_compiled_kernel_variant_passes_the_equivalence_suite() {
    let mut tested = 0;
    for &variant in KernelVariant::compiled() {
        if !variant.available() {
            continue;
        }
        tested += 1;
        with_forced_kernel(variant, || {
            let mut rng = StdRng::seed_from_u64(0xD15F * (tested as u64));
            // Packed-regime shapes only: the micro-kernel is the
            // packed path's inner loop (other regimes never reach it).
            for &(m, n, k) in &[
                (8usize, 8usize, 400usize),
                (13, 17, 400),
                (65, 9, 513),
                (70, 30, 390),
                (3, 1030, 385),
            ] {
                for (tra, trb) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    check_case(m, n, k, 1.0, 0.0, trans(tra), trans(trb), &mut rng)
                        .unwrap_or_else(|e| panic!("[{}] {e}", variant.name()));
                }
            }
        });
    }
    assert!(tested >= 1, "no kernel variant was testable");
    #[cfg(target_arch = "x86_64")]
    if KernelVariant::Avx2Fma.available() {
        assert!(tested >= 2, "AVX2 available but not tested");
    }
}

/// Forced variants agree with each other within float tolerance (they
/// may differ in write-back rounding, never in math).
#[test]
fn kernel_variants_agree_within_tolerance() {
    let mut rng = StdRng::seed_from_u64(31);
    let (m, n, k) = (30, 40, 450);
    let a = rand_vec(&mut rng, m * k);
    let b = rand_vec(&mut rng, k * n);
    let mut outputs = Vec::new();
    for &variant in KernelVariant::compiled() {
        if !variant.available() {
            continue;
        }
        let mut c = vec![0.0f32; m * n];
        with_forced_kernel(variant, || {
            sgemm(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c)
        });
        outputs.push((variant, c));
    }
    let (base_v, base) = &outputs[0];
    for (v, c) in &outputs[1..] {
        for (i, (x, y)) in c.iter().zip(base).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * (1.0 + y.abs()),
                "{} vs {} differ at [{i}]: {x} vs {y}",
                v.name(),
                base_v.name()
            );
        }
    }
}

/// Thread counts the served-shape battery runs at: span partitions from
/// serial to 16 slots.
const SERVED_THREADS: [usize; 6] = [1, 2, 3, 4, 8, 16];

/// Width at which `sgemm` hands a short-`k` product whose C is at least
/// one micro-tile tall from the packed micro-kernel to the axpy sweep.
const AXPY_MIN_N: usize = 512;

/// Every GEMM the served models issue at batch `nb`: each tower
/// convolution's forward, weight-gradient and (past the first layer)
/// input-gradient product, and each head dense layer's forward,
/// weight-gradient and input-gradient product. Geometries are the two
/// perfbench models: 32x32 inputs with conv 8-16-32 and hidden 48, and
/// 64x32 inputs with conv 16-32-64 and hidden 64, two towers, 4 classes.
fn served_shapes(nb: usize) -> Vec<(String, usize, usize, usize, Trans, Trans)> {
    let mut out = Vec::new();
    for (name, (h0, w0), conv, hidden) in [
        ("32x32", (32usize, 32usize), [8usize, 16, 32], 48usize),
        ("64x32", (64, 32), [16, 32, 64], 64),
    ] {
        let (mut c, mut h, mut w) = (1, h0, w0);
        for (li, (&oc, stride)) in conv.iter().zip([1, 2, 2]).enumerate() {
            let (oh, ow) = conv_out_hw(h, w, 3, stride, 1);
            let (l, k2c) = (nb * oh * ow, c * 9);
            let tag = |what: &str| format!("{name} b{nb} conv{} {what}", li + 1);
            out.push((tag("fwd"), oc, l, k2c, Trans::No, Trans::No));
            out.push((tag("gw"), oc, k2c, l, Trans::No, Trans::Yes));
            if li > 0 {
                out.push((tag("gin"), k2c, l, oc, Trans::Yes, Trans::No));
            }
            (c, h, w) = (oc, oh / 2, ow / 2);
        }
        let feat = 2 * c * h.max(1) * w.max(1);
        for (li, (din, dout)) in [(feat, hidden), (hidden, 4)].into_iter().enumerate() {
            let tag = |what: &str| format!("{name} b{nb} dense{} {what}", li + 1);
            out.push((tag("fwd"), nb, dout, din, Trans::No, Trans::Yes));
            out.push((tag("gw"), dout, din, nb, Trans::Yes, Trans::No));
            out.push((tag("gin"), nb, din, dout, Trans::No, Trans::No));
        }
    }
    out
}

/// The served models' GEMMs at batch 1, 8 and 32, plus C widths just
/// below, at and above the axpy boundary (and C heights either side of
/// one micro-tile): within 1e-4 of the f64 reference, bit-identical
/// across 1–16 threads and across repeated runs, under every compiled
/// micro-kernel variant. The batch-of-one conv3 products are the
/// narrowest the packed path serves, so its ragged-tile spill runs here
/// on the shapes production runs.
#[test]
fn served_gemm_shapes_hold_in_every_kernel_variant() {
    let mut shapes: Vec<_> = [1, 8, 32].into_iter().flat_map(served_shapes).collect();
    for n in [AXPY_MIN_N - 1, AXPY_MIN_N, AXPY_MIN_N + 1] {
        for m in [7, 8, 32] {
            for ta in [Trans::No, Trans::Yes] {
                shapes.push((format!("boundary m{m} n{n}"), m, n, 72, ta, Trans::No));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0x5E7);
    for (what, m, n, k, ta, tb) in shapes {
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let c0 = rand_vec(&mut rng, m * n);
        let mut want = c0.clone();
        naive_gemm(m, n, k, 1.0, &a, ta, &b, tb, 1.0, &mut want);
        let case = Case {
            m,
            n,
            k,
            alpha: 1.0,
            beta: 1.0,
            a: &a,
            ta,
            b: &b,
            tb,
            c0: &c0,
        };
        for &variant in KernelVariant::compiled() {
            if !variant.available() {
                continue;
            }
            with_forced_kernel(variant, || {
                let first = check_threads(&case, &want, &SERVED_THREADS)
                    .unwrap_or_else(|e| panic!("[{}] {what}: {e}", variant.name()));
                // A repeated run, at the widest partition.
                let again = check_threads(&case, &want, &SERVED_THREADS[5..])
                    .unwrap_or_else(|e| panic!("[{}] {what}: {e}", variant.name()));
                assert!(
                    first
                        .iter()
                        .zip(&again)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "[{}] {what}: repeated run differs bitwise",
                    variant.name()
                );
            });
        }
    }
}

/// IEEE semantics in every regime: `0 * NaN` is NaN, so a NaN in one
/// operand opposite a zero in the other must reach every element of C
/// — whichever regime `sgemm` picks, wherever the poisoned index falls
/// in the 4-wide fused body or its tail, at every thread count.
#[test]
fn nan_opposite_a_zero_reaches_c_in_every_regime() {
    // (m, n, k, ta, tb): matvec (n = 1), rank-1 (k = 1), dot (No/Yes),
    // axpy (wide C, and C shorter than one tile), packed (narrow C, and
    // k past the short-k bound).
    let mut shapes = Vec::new();
    for (m, n, k) in [
        (9, 1, 6),
        (9, 7, 1),
        (9, 7, 5),
        (1, 8, 5),
        (9, 600, 7),
        (3, 40, 6),
        (12, 4, 7),
        (12, 20, 390),
    ] {
        for ta in [Trans::No, Trans::Yes] {
            for tb in [Trans::No, Trans::Yes] {
                shapes.push((m, n, k, ta, tb));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(0x0A7);
    for (m, n, k, ta, tb) in shapes {
        // Both directions: NaN in B opposite zero in A, and NaN in A
        // opposite zero in B.
        for nan_in_b in [true, false] {
            for p0 in [0, k / 2, k - 1] {
                let mut a = rand_vec(&mut rng, m * k);
                let mut b = rand_vec(&mut rng, k * n);
                let (zero, nan) = if nan_in_b {
                    (0.0, f32::NAN)
                } else {
                    (f32::NAN, 0.0)
                };
                for i in 0..m {
                    a[match ta {
                        Trans::No => i * k + p0,
                        Trans::Yes => p0 * m + i,
                    }] = zero;
                }
                for j in 0..n {
                    b[match tb {
                        Trans::No => p0 * n + j,
                        Trans::Yes => j * k + p0,
                    }] = nan;
                }
                for t in THREADS {
                    let mut c = vec![0.0f32; m * n];
                    with_gemm_threading(GemmThreading::Fixed(t), || {
                        sgemm(m, n, k, 1.0, &a, ta, &b, tb, 0.0, &mut c)
                    });
                    if let Some(i) = c.iter().position(|v| !v.is_nan()) {
                        panic!(
                            "C({m}x{n}x{k},{ta:?},{tb:?},t{t}) NaN in {} at p={p0} \
                             dropped at [{i}]: {}",
                            if nan_in_b { "B" } else { "A" },
                            c[i]
                        );
                    }
                }
            }
        }
    }
}
