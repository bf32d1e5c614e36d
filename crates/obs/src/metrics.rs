//! Scalar metric primitives: monotonic counters and up/down gauges.
//!
//! Handles are `Arc`s around a single atomic cell, handed out by the
//! [`Registry`](crate::Registry): clone one per call site, record with
//! relaxed atomics, read from any thread. A handle detached from any
//! registry (via `Counter::new()`) works identically — useful for
//! scratch measurements that should not appear in exported dumps.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A free-standing counter (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub(crate) fn from_shared(cell: Arc<AtomicU64>) -> Self {
        Self { cell }
    }
}

/// A gauge: a signed value that can move both ways (queue depth,
/// in-flight requests, live model generation).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A free-standing gauge (not attached to a registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.cell.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Stores a `[0, 1]` ratio as an integer permille (‰). Gauges are
    /// integers, so fractional quantities (accuracy, fill ratios) are
    /// exported at 1/1000 resolution; non-finite input clamps to 0.
    #[inline]
    pub fn set_permille(&self, ratio: f64) {
        let v = if ratio.is_finite() {
            (ratio * 1000.0)
                .round()
                .clamp(i64::MIN as f64, i64::MAX as f64) as i64
        } else {
            0
        };
        self.set(v);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }

    pub(crate) fn from_shared(cell: Arc<AtomicI64>) -> Self {
        Self { cell }
    }
}

/// An RAII in-flight marker: adds `n` on construction and takes it
/// back on drop — including a drop during panic unwinding, so a crashed
/// worker never leaks an in-flight count.
#[derive(Debug)]
pub struct GaugeGuard<'a> {
    gauge: &'a Gauge,
    n: i64,
}

impl<'a> GaugeGuard<'a> {
    /// Adds `n` to `gauge` now; subtracts it when dropped.
    pub fn enter(gauge: &'a Gauge, n: i64) -> Self {
        gauge.add(n);
        Self { gauge, n }
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.add(-self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_clones_share_the_cell() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c2.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn permille_rounds_and_survives_non_finite() {
        let g = Gauge::new();
        g.set_permille(0.7349);
        assert_eq!(g.get(), 735);
        g.set_permille(1.0);
        assert_eq!(g.get(), 1000);
        g.set_permille(f64::NAN);
        assert_eq!(g.get(), 0);
        g.set_permille(f64::INFINITY);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn gauge_guard_releases_on_panic_unwind() {
        let g = Gauge::new();
        let g2 = g.clone();
        let r = std::panic::catch_unwind(move || {
            let _guard = GaugeGuard::enter(&g2, 3);
            assert_eq!(g2.get(), 3);
            panic!("boom");
        });
        assert!(r.is_err());
        assert_eq!(g.get(), 0, "guard must release during unwind");
    }
}
