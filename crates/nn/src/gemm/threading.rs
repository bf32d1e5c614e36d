//! The GEMM threading model: a per-call-site *budget* resolved into a
//! slot count, and the partitioning that turns slots into disjoint row
//! spans of C.
//!
//! # Model
//!
//! Every [`crate::gemm::sgemm`] call resolves an ambient
//! [`GemmThreading`] policy into `slots = min(budget, rows)` and
//! splits the output rows of C into `slots` contiguous spans, one per
//! fork-join task (`rayon::scope`; the caller runs span 0 itself).
//! The policy is scoped, not global: [`with_gemm_threading`] installs
//! it on the current thread for the duration of a closure, and the
//! innermost scope wins. Training installs its `TrainConfig` policy
//! around the whole run; server workers install `Serial` around their
//! drain loop (the workers *are* the parallelism there — nested
//! fork-join in a forward would only add contention); everything else
//! defaults to `Auto`. What a worker does fork is the extraction of a
//! matrix of at least 2^18 nonzeros
//! (`dnnspmv_core::samples::extract_in_parts`): each part sweeps at
//! least 2^17 nonzeros, ~200 µs against a pool worker's 35–45 µs
//! wake-up, and a part no worker has claimed runs on the caller, so a
//! busy pool costs one queue push.
//!
//! # Determinism contract
//!
//! The slot partition decides only *which task* computes a row span —
//! never the order in which any C element accumulates its `k`
//! products. Each element's reduction order is a function of the
//! blocking constants alone (`KC` panels outermost, then the fixed
//! `p` loop of the micro-kernel or axpy/dot sweep), so `sgemm` output
//! is bit-identical across runs *and across thread counts*. The
//! equivalence suite pins this for thread counts 1–8.

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread budget for one GEMM call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GemmThreading {
    /// One slot per pool worker (`rayon::current_num_threads`).
    #[default]
    Auto,
    /// Exactly one slot: the calling thread does all the work and the
    /// pool is never touched. What server workers run under.
    Serial,
    /// A fixed slot count, regardless of pool size. Used by the
    /// determinism/equivalence suites and the bench thread sweep;
    /// counts above the pool size still partition (and still produce
    /// identical bits), they just share workers.
    Fixed(usize),
}

impl GemmThreading {
    /// The raw slot budget this policy asks for.
    fn budget(self) -> usize {
        match self {
            GemmThreading::Auto => rayon::current_num_threads().max(1),
            GemmThreading::Serial => 1,
            GemmThreading::Fixed(n) => n.max(1),
        }
    }
}

thread_local! {
    static AMBIENT: Cell<Option<GemmThreading>> = const { Cell::new(None) };
}

/// Runs `f` with `policy` as the calling thread's GEMM threading
/// policy, restoring the previous policy afterwards (also on unwind).
/// Scopes nest; the innermost wins.
pub fn with_gemm_threading<R>(policy: GemmThreading, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<GemmThreading>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT.with(|c| c.replace(Some(policy))));
    f()
}

/// The calling thread's current policy (`Auto` when no scope is
/// installed).
pub fn current_gemm_threading() -> GemmThreading {
    AMBIENT.with(|c| c.get()).unwrap_or_default()
}

/// Resolves the ambient policy against the available work: at most one
/// slot per row, at least one slot. Records the decision in the probe.
pub(crate) fn effective_slots(rows: usize) -> usize {
    let slots = current_gemm_threading().budget().min(rows.max(1));
    MAX_SLOTS_SEEN.fetch_max(slots, Ordering::Relaxed);
    slots
}

/// High-water mark of slot counts chosen by `sgemm` since the last
/// [`slots_probe_reset`]. One relaxed `fetch_max` per GEMM call — the
/// observable the "server GEMM stays single-threaded" tests assert on.
static MAX_SLOTS_SEEN: AtomicUsize = AtomicUsize::new(0);

/// Resets the slot probe. Test instrumentation: process-global, so
/// concurrent tests in one binary must serialise around it.
pub fn slots_probe_reset() {
    MAX_SLOTS_SEEN.store(0, Ordering::Relaxed);
}

/// Largest slot count any `sgemm` call used since the last reset.
pub fn slots_probe_max() -> usize {
    MAX_SLOTS_SEEN.load(Ordering::Relaxed)
}

/// Splits `rows` into at most `slots` contiguous, non-empty,
/// balanced spans covering `0..rows` in order.
pub(crate) fn partition_rows(rows: usize, slots: usize) -> Vec<Range<usize>> {
    let slots = slots.clamp(1, rows.max(1));
    let base = rows / slots;
    let rem = rows % slots;
    let mut spans = Vec::with_capacity(slots);
    let mut start = 0;
    for s in 0..slots {
        let len = base + usize::from(s < rem);
        if len == 0 {
            break;
        }
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Runs `f(first_row, rows_block)` once per span, each span getting
/// the disjoint `&mut` block of `c` holding its rows (`ld` elements
/// per row). Span 0 runs on the calling thread; the rest are spawned
/// on the pool. Single-span calls never touch the pool.
pub(crate) fn for_each_row_span(
    c: &mut [f32],
    ld: usize,
    spans: &[Range<usize>],
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert!(spans.first().map(|s| s.start) == Some(0) || spans.is_empty());
    if spans.len() <= 1 {
        if let Some(span) = spans.first() {
            f(span.start, &mut c[span.start * ld..span.end * ld]);
        }
        return;
    }
    let mut rest = c;
    let mut parts = Vec::with_capacity(spans.len());
    for span in spans {
        let (head, tail) = rest.split_at_mut((span.end - span.start) * ld);
        parts.push((span.start, head));
        rest = tail;
    }
    let f = &f;
    let mut parts = parts.into_iter();
    let (row0, first) = parts.next().expect("at least one span");
    rayon::scope(|s| {
        for (r0, block) in parts {
            s.spawn(move |_| f(r0, block));
        }
        f(row0, first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_balanced_and_complete() {
        for rows in [0usize, 1, 2, 7, 8, 64, 65, 1000] {
            for slots in [1usize, 2, 3, 4, 8, 13] {
                let spans = partition_rows(rows, slots);
                assert!(spans.len() <= slots.max(1));
                let mut next = 0;
                for sp in &spans {
                    assert_eq!(sp.start, next, "gap at {rows}x{slots}");
                    assert!(!sp.is_empty());
                    next = sp.end;
                }
                assert_eq!(next, rows, "coverage at {rows}x{slots}");
                if let (Some(max), Some(min)) = (
                    spans.iter().map(|s| s.len()).max(),
                    spans.iter().map(|s| s.len()).min(),
                ) {
                    assert!(max - min <= 1, "imbalance at {rows}x{slots}");
                }
            }
        }
    }

    #[test]
    fn scoped_policy_nests_and_restores() {
        assert_eq!(current_gemm_threading(), GemmThreading::Auto);
        with_gemm_threading(GemmThreading::Fixed(4), || {
            assert_eq!(current_gemm_threading(), GemmThreading::Fixed(4));
            with_gemm_threading(GemmThreading::Serial, || {
                assert_eq!(current_gemm_threading(), GemmThreading::Serial);
            });
            assert_eq!(current_gemm_threading(), GemmThreading::Fixed(4));
        });
        assert_eq!(current_gemm_threading(), GemmThreading::Auto);
    }

    #[test]
    fn policy_restores_across_unwind() {
        let r = std::panic::catch_unwind(|| {
            with_gemm_threading(GemmThreading::Fixed(2), || panic!("boom"))
        });
        assert!(r.is_err());
        assert_eq!(current_gemm_threading(), GemmThreading::Auto);
    }

    #[test]
    fn row_spans_receive_disjoint_blocks() {
        let mut c = vec![0.0f32; 10 * 3];
        let spans = partition_rows(10, 4);
        for_each_row_span(&mut c, 3, &spans, |r0, block| {
            for (i, row) in block.chunks_mut(3).enumerate() {
                row.fill((r0 + i) as f32);
            }
        });
        for (i, row) in c.chunks(3).enumerate() {
            assert!(row.iter().all(|&v| v == i as f32), "row {i} wrong");
        }
    }

    #[test]
    fn serial_policy_resolves_to_one_slot() {
        with_gemm_threading(GemmThreading::Serial, || {
            assert_eq!(effective_slots(1000), 1);
        });
        with_gemm_threading(GemmThreading::Fixed(8), || {
            assert_eq!(effective_slots(1000), 8);
            assert_eq!(effective_slots(3), 3, "never more slots than rows");
        });
    }
}
