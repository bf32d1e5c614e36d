//! Micro-kernel variants and their once-per-process runtime dispatch.
//!
//! The blocked `sgemm` path funnels every packed `MR x NR` tile
//! through one `MicroKernel` function pointer. Which pointer is
//! decided once per process by CPU feature detection
//! ([`KernelVariant::detect`], cached in a `OnceLock`): the explicit
//! AVX2/FMA kernel where `is_x86_feature_detected!` says so, the
//! portable `mul_add` kernel otherwise (NEON on aarch64, where the
//! feature is architecturally guaranteed). Tests force a specific
//! variant with [`with_forced_kernel`]; the override is thread-local
//! and resolved on the *calling* thread at `sgemm` entry, then handed
//! to the worker tasks as a plain fn pointer — so concurrent tests
//! forcing different variants never race, and workers never consult
//! (possibly unset) thread-locals of their own.
//!
//! Every variant computes each C element with the same operation
//! sequence — fused multiply-add accumulation in ascending `p` order,
//! then an *unfused* `C += alpha * acc` write-back (the write-back
//! must not fuse: tile raggedness depends on the span partition, so a
//! fused full-tile path would let the thread count change output
//! bits). A fixed variant is therefore bit-deterministic across runs
//! and thread counts; the equivalence suite additionally bounds every
//! variant at 1e-4 against an f64 reference.

use std::cell::Cell;
use std::sync::OnceLock;

/// Micro-kernel tile rows.
pub(super) const MR: usize = 8;
/// Micro-kernel tile columns.
pub(super) const NR: usize = 8;

/// One packed-panel rank-`kc` update of an `MR x NR` tile of C.
///
/// `ap`/`bp` are the packed micro-panels (`kc * MR` / `kc * NR`,
/// zero-padded), `cblk` a row-major block of C with leading dimension
/// `ldc`, and `(i0, j0, ni, nj)` the live tile inside it.
pub(super) type MicroKernel = fn(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    cblk: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    ni: usize,
    nj: usize,
);

/// The micro-kernel implementations compiled into this binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Scalar `mul_add` lanes; compiles everywhere, autovectorises
    /// under `target-cpu=native`. The fallback every arch keeps live.
    Portable,
    /// Explicit `std::arch` AVX2 + FMA: one 256-bit row of B per
    /// `_mm256_loadu_ps`, A broadcast with `_mm256_set1_ps`, eight
    /// `_mm256_fmadd_ps` accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Explicit `std::arch` NEON: two `float32x4_t` halves per row,
    /// `vfmaq_f32` accumulation.
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl KernelVariant {
    /// Stable lowercase name (bench JSON, test labels).
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2Fma => "avx2_fma",
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon => "neon",
        }
    }

    /// Every variant compiled on this host, portable first. The
    /// dispatch test runs the equivalence suite over each entry so no
    /// compiled path is dead untested code.
    pub fn compiled() -> &'static [KernelVariant] {
        &[
            KernelVariant::Portable,
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2Fma,
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon,
        ]
    }

    /// Whether this host's CPU can execute the variant.
    pub fn available(self) -> bool {
        match self {
            KernelVariant::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2Fma => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            // NEON is baseline on aarch64.
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon => true,
        }
    }

    /// The best available variant, detected once per process.
    pub fn detect() -> KernelVariant {
        static DETECTED: OnceLock<KernelVariant> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            KernelVariant::compiled()
                .iter()
                .rev()
                .copied()
                .find(|v| v.available())
                .unwrap_or(KernelVariant::Portable)
        })
    }

    fn kernel(self) -> MicroKernel {
        match self {
            KernelVariant::Portable => portable_kernel,
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2Fma => x86::avx2_fma_kernel,
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon => arm::neon_kernel,
        }
    }
}

thread_local! {
    static FORCED: Cell<Option<KernelVariant>> = const { Cell::new(None) };
}

/// Runs `f` with every `sgemm` on this thread pinned to `variant`,
/// restoring the previous override afterwards (also on unwind).
///
/// Test hook for the per-variant dispatch suite. Panics if the host
/// cannot execute `variant` — forcing an unavailable kernel would be
/// undefined behaviour, not a slow path.
pub fn with_forced_kernel<R>(variant: KernelVariant, f: impl FnOnce() -> R) -> R {
    assert!(
        variant.available(),
        "kernel variant {} is not executable on this host",
        variant.name()
    );
    struct Restore(Option<KernelVariant>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(variant))));
    f()
}

/// The variant `sgemm` will use on this thread right now: the forced
/// override if one is installed, otherwise the process-wide detection.
pub fn active_variant() -> KernelVariant {
    FORCED
        .with(|c| c.get())
        .unwrap_or_else(KernelVariant::detect)
}

/// Resolves [`active_variant`] to its function pointer. Called once at
/// `sgemm` entry on the calling thread; the pointer is what crosses
/// into worker tasks.
pub(super) fn active_kernel() -> MicroKernel {
    active_variant().kernel()
}

/// `MR x NR` register tile: accumulates one packed-A / packed-B panel
/// pair, then writes `alpha * acc` into the live part of C. Scalar
/// `mul_add` lanes; the compiler's autovectoriser does the rest.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(super) fn portable_kernel(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    cblk: &mut [f32],
    ldc: usize,
    i0: usize,
    j0: usize,
    ni: usize,
    nj: usize,
) {
    let mut acc = [0.0f32; MR * NR];
    for p in 0..kc {
        let arow = &ap[p * MR..p * MR + MR];
        let brow = &bp[p * NR..p * NR + NR];
        for ii in 0..MR {
            let av = arow[ii];
            let dst = &mut acc[ii * NR..(ii + 1) * NR];
            for (d, &bv) in dst.iter_mut().zip(brow) {
                *d = av.mul_add(bv, *d);
            }
        }
    }
    for ii in 0..ni {
        let crow = &mut cblk[(i0 + ii) * ldc + j0..][..nj];
        let arow = &acc[ii * NR..ii * NR + nj];
        for (cv, &v) in crow.iter_mut().zip(arow) {
            *cv += alpha * v;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{MR, NR};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// AVX2/FMA twin of the portable kernel: same `p`-ordered fused
    /// accumulation per element, eight `__m256` accumulator rows.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA. `ap`/`bp` must hold at least
    /// `kc * MR` / `kc * NR` elements and `cblk` must contain the
    /// `(i0..i0+ni) x (j0..j0+nj)` tile at leading dimension `ldc`
    /// (all guaranteed by the packed-path caller; the full-tile
    /// write-back additionally relies on `ni == MR && nj == NR`).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn avx2_fma_impl(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        alpha: f32,
        cblk: &mut [f32],
        ldc: usize,
        i0: usize,
        j0: usize,
        ni: usize,
        nj: usize,
    ) {
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        // SAFETY: loads stay inside ap/bp (checked above); C pointers
        // stay inside cblk per this function's contract.
        unsafe {
            let mut acc = [_mm256_setzero_ps(); MR];
            for p in 0..kc {
                let brow = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
                let arow = ap.as_ptr().add(p * MR);
                for (ii, accrow) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*arow.add(ii));
                    *accrow = _mm256_fmadd_ps(av, brow, *accrow);
                }
            }
            if ni == MR && nj == NR {
                // Full tile: write straight back to memory, no spill.
                // Deliberately NOT a fused `alpha*acc + C`: whether a
                // row lands in a full or ragged tile depends on the
                // span partition, so both write-backs must round
                // identically (mul, then add — matching the portable
                // kernel bit-for-bit) or thread counts would change
                // output bits.
                let alpha_v = _mm256_set1_ps(alpha);
                for (ii, &accrow) in acc.iter().enumerate() {
                    let cptr = cblk.as_mut_ptr().add((i0 + ii) * ldc + j0);
                    let cv = _mm256_loadu_ps(cptr);
                    _mm256_storeu_ps(cptr, _mm256_add_ps(cv, _mm256_mul_ps(alpha_v, accrow)));
                }
            } else {
                // Ragged edge tile: spill the accumulators and let the
                // scalar loop respect the live bounds.
                let mut tile = [0.0f32; MR * NR];
                for (ii, &accrow) in acc.iter().enumerate() {
                    _mm256_storeu_ps(tile.as_mut_ptr().add(ii * NR), accrow);
                }
                for ii in 0..ni {
                    let crow = &mut cblk[(i0 + ii) * ldc + j0..][..nj];
                    for (cv, &v) in crow.iter_mut().zip(&tile[ii * NR..ii * NR + nj]) {
                        *cv += alpha * v;
                    }
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn avx2_fma_kernel(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        alpha: f32,
        cblk: &mut [f32],
        ldc: usize,
        i0: usize,
        j0: usize,
        ni: usize,
        nj: usize,
    ) {
        // SAFETY: this pointer is only ever handed out by the dispatch
        // table after `KernelVariant::Avx2Fma.available()` confirmed
        // AVX2+FMA at runtime; slice bounds are the packed-path
        // invariants documented on `avx2_fma_impl`.
        unsafe { avx2_fma_impl(kc, ap, bp, alpha, cblk, ldc, i0, j0, ni, nj) }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::{MR, NR};
    use std::arch::aarch64::{vdupq_n_f32, vfmaq_f32, vld1q_f32, vst1q_f32};

    /// NEON twin of the portable kernel: each 8-wide accumulator row
    /// is a pair of `float32x4_t`, accumulated with `vfmaq_f32` in the
    /// same `p` order as every other variant.
    ///
    /// # Safety
    /// Same packed-path slice invariants as the AVX2 kernel; NEON
    /// itself is baseline on aarch64.
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn neon_impl(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        alpha: f32,
        cblk: &mut [f32],
        ldc: usize,
        i0: usize,
        j0: usize,
        ni: usize,
        nj: usize,
    ) {
        debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
        // SAFETY: loads stay inside ap/bp (checked above); C pointers
        // stay inside cblk per this function's contract.
        unsafe {
            let zero = vdupq_n_f32(0.0);
            let mut lo = [zero; MR];
            let mut hi = [zero; MR];
            for p in 0..kc {
                let blo = vld1q_f32(bp.as_ptr().add(p * NR));
                let bhi = vld1q_f32(bp.as_ptr().add(p * NR + 4));
                let arow = ap.as_ptr().add(p * MR);
                for ii in 0..MR {
                    let av = vdupq_n_f32(*arow.add(ii));
                    lo[ii] = vfmaq_f32(lo[ii], av, blo);
                    hi[ii] = vfmaq_f32(hi[ii], av, bhi);
                }
            }
            let mut tile = [0.0f32; MR * NR];
            for ii in 0..MR {
                vst1q_f32(tile.as_mut_ptr().add(ii * NR), lo[ii]);
                vst1q_f32(tile.as_mut_ptr().add(ii * NR + 4), hi[ii]);
            }
            for ii in 0..ni {
                let crow = &mut cblk[(i0 + ii) * ldc + j0..][..nj];
                for (cv, &v) in crow.iter_mut().zip(&tile[ii * NR..ii * NR + nj]) {
                    *cv += alpha * v;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn neon_kernel(
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        alpha: f32,
        cblk: &mut [f32],
        ldc: usize,
        i0: usize,
        j0: usize,
        ni: usize,
        nj: usize,
    ) {
        // SAFETY: NEON is architecturally guaranteed on aarch64; slice
        // bounds are the packed-path invariants documented on
        // `neon_impl`.
        unsafe { neon_impl(kc, ap, bp, alpha, cblk, ldc, i0, j0, ni, nj) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_always_compiled_and_available() {
        assert!(KernelVariant::compiled().contains(&KernelVariant::Portable));
        assert!(KernelVariant::Portable.available());
    }

    #[test]
    fn detection_picks_an_available_variant_and_is_stable() {
        let v = KernelVariant::detect();
        assert!(v.available());
        assert_eq!(v, KernelVariant::detect(), "detection must be cached");
    }

    #[test]
    fn forced_kernel_nests_and_restores() {
        let base = active_variant();
        with_forced_kernel(KernelVariant::Portable, || {
            assert_eq!(active_variant(), KernelVariant::Portable);
        });
        assert_eq!(active_variant(), base);
        let r = std::panic::catch_unwind(|| {
            with_forced_kernel(KernelVariant::Portable, || panic!("boom"))
        });
        assert!(r.is_err());
        assert_eq!(active_variant(), base, "override must restore on unwind");
    }

    #[test]
    fn every_compiled_available_variant_matches_portable_on_one_tile() {
        // Tiny smoke here; the full cross-variant equivalence battery
        // lives in tests/gemm_equivalence.rs.
        let kc = 13;
        let ap: Vec<f32> = (0..kc * MR).map(|i| (i as f32 * 0.37).sin()).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|i| (i as f32 * 0.61).cos()).collect();
        let mut want = vec![0.5f32; MR * NR];
        portable_kernel(kc, &ap, &bp, 1.25, &mut want, NR, 0, 0, MR, NR);
        for &v in KernelVariant::compiled() {
            if !v.available() {
                continue;
            }
            for (ni, nj) in [(MR, NR), (3, 5)] {
                let mut got = vec![0.5f32; MR * NR];
                let mut reference = vec![0.5f32; MR * NR];
                (v.kernel())(kc, &ap, &bp, 1.25, &mut got, NR, 0, 0, ni, nj);
                portable_kernel(kc, &ap, &bp, 1.25, &mut reference, NR, 0, 0, ni, nj);
                for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
                    assert!(
                        (g - w).abs() <= 1e-5 * (1.0 + w.abs()),
                        "{}[{i}] ({ni}x{nj}): {g} vs {w}",
                        v.name()
                    );
                }
            }
        }
    }
}
