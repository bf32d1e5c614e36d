//! Fixed-bucket log-scale latency histogram.
//!
//! The layout is the HDR-histogram "log-linear" scheme: values below
//! [`SUB`] get exact unit buckets; above that, each power-of-two octave
//! is split into [`SUB`] linear sub-buckets, so every bucket's relative
//! width is at most `1/SUB` (6.25 % for `SUB = 16`). The bucket count
//! is fixed at compile time ([`BUCKETS`]), which buys two properties
//! the serving layer needs:
//!
//! * **Lock-free recording** — one relaxed `fetch_add` into a fixed
//!   array slot plus count/sum/min/max updates; no allocation, no
//!   resizing, no locks, safe from any number of threads.
//! * **Deterministic quantiles** — a quantile is "the bucket holding
//!   the rank-`⌈q·n⌉` recorded value"; the estimate returned is that
//!   bucket's midpoint, clamped into the exact observed `[min, max]`.
//!   The rank rule matches the sorted-vector oracle definition
//!   exactly, which is what the property suite pins.
//!
//! Values are `u64` — the system records nanoseconds, but nothing here
//! assumes a unit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (must be a power of two).
pub const SUB: usize = 16;
const SUB_BITS: u32 = SUB.trailing_zeros();

/// Total bucket count covering the full `u64` range.
/// Shifts run 0..=`63 - SUB_BITS`, each contributing `SUB` buckets,
/// plus the exact region `0..SUB` (which aliases shift 0's low half in
/// indexing below, hence the `+ 1` octave).
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// The bucket a value lands in. Total over all of `u64`; monotone in
/// `v`; exact (width-1 buckets) for `v < 2·SUB`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + sub
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to
/// it). The exclusive upper bound is `bucket_low(i + 1)`.
pub fn bucket_low(i: usize) -> u64 {
    if i < 2 * SUB {
        return i as u64;
    }
    let shift = (i / SUB - 1) as u32;
    let sub = (i % SUB) as u64;
    (SUB as u64 + sub) << shift
}

/// A midpoint representative for bucket `i`, used as the quantile
/// estimate before clamping into the observed range.
fn bucket_mid(i: usize) -> u64 {
    let lo = bucket_low(i);
    let hi = if i + 1 < BUCKETS {
        bucket_low(i + 1) - 1
    } else {
        u64::MAX
    };
    lo + (hi - lo) / 2
}

/// Lock-free fixed-bucket log-scale histogram (see module docs).
///
/// `record` is wait-free (a few relaxed atomics); `snapshot` is a
/// consistent-enough read for monitoring: counts racing with concurrent
/// recorders may be off by in-flight records, but once recording
/// quiesces the snapshot is exact (the property suite pins this).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([const { AtomicU64::new(0) }; BUCKETS]),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Wait-free; callable from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets and the exact aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`LatencyHistogram`]: the thing quantiles
/// are computed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total recorded values (equals the bucket sum once recording has
    /// quiesced).
    pub count: u64,
    /// Sum of recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Exact smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Exact largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the midpoint of the bucket
    /// containing the rank-`⌈q·count⌉` recorded value (rank 1 for
    /// `q = 0`), clamped into the exact `[min, max]`. `q = 1` therefore
    /// returns the exact max, and on an empty snapshot every quantile
    /// is 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_two_sub() {
        for v in 0..(2 * SUB as u64) {
            assert_eq!(bucket_index(v), v as usize, "v={v}");
            assert_eq!(bucket_low(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_bracket() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 30,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut prev = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i >= prev, "monotone at v={v}");
            prev = i;
            assert!(i < BUCKETS);
            assert!(bucket_low(i) <= v, "low bound at v={v}");
            if i + 1 < BUCKETS {
                assert!(v < bucket_low(i + 1), "high bound at v={v}");
            }
        }
    }

    #[test]
    fn every_bucket_boundary_round_trips() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_low(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn small_recordings_give_exact_quantiles() {
        let h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!((s.min, s.max), (1, 10));
        // Values < SUB are in width-1 buckets: quantiles are exact.
        assert_eq!(s.p50(), 5);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 10);
        assert_eq!(s.mean(), 5.5);
    }

    #[test]
    fn quantile_of_large_values_stays_within_one_bucket() {
        let h = LatencyHistogram::new();
        let v = 1_000_000u64;
        for _ in 0..100 {
            h.record(v);
        }
        let s = h.snapshot();
        let i = bucket_index(v);
        let p50 = s.p50();
        assert_eq!(bucket_index(p50), i, "estimate in the recorded bucket");
        assert_eq!(s.quantile(1.0), v, "q=1 is the exact max");
    }

    #[test]
    fn empty_snapshot_has_zero_quantiles() {
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
    }
}
