//! Injectable monotonic time for the serving layer.
//!
//! Anything timing-sensitive (the selector server's deadlines, breaker
//! and latency histograms, the decision cache's TTL) takes a
//! [`ClockFn`] instead of reading `Instant` directly, so tests drive a
//! fake clock and every duration they observe is exact.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Injectable monotonic clock returning nanoseconds since an arbitrary
/// epoch. Production uses [`system_clock`]; tests drive a
/// [`ManualClock`] or any closure.
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// Monotonic wall clock (nanoseconds since first use anywhere in the
/// process — all instances share one epoch so timestamps compare).
pub fn system_clock() -> ClockFn {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    Arc::new(move || epoch.elapsed().as_nanos() as u64)
}

/// A hand-advanced fake clock for deterministic tests: reads are
/// atomic, so worker threads and the test harness can share it.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A clock starting at `t` nanoseconds.
    pub fn starting_at(t: u64) -> Arc<Self> {
        let c = Self::default();
        c.now.store(t, Ordering::SeqCst);
        Arc::new(c)
    }

    /// A clock starting at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Current reading in nanoseconds.
    pub fn now(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }

    /// Advances the clock by `dt` nanoseconds.
    pub fn advance(&self, dt: u64) {
        self.now.fetch_add(dt, Ordering::SeqCst);
    }

    /// Jumps the clock to an absolute reading. Jumping backwards is
    /// allowed — it models a host clock misbehaving (VM migration,
    /// time sync) — and every consumer is required to clamp elapsed
    /// arithmetic (`saturating_sub`/`saturating_add`) so a rewound
    /// clock reads as "no time passed", never as an underflow.
    pub fn set(&self, t: u64) {
        self.now.store(t, Ordering::SeqCst);
    }

    /// Rewinds the clock by `dt` nanoseconds (to zero at most) — the
    /// regression lever for non-monotonic-clock tests.
    pub fn rewind(&self, dt: u64) {
        let mut cur = self.now.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_sub(dt);
            match self
                .now
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// This clock as a [`ClockFn`] handle.
    pub fn as_clock_fn(self: &Arc<Self>) -> ClockFn {
        let c = Arc::clone(self);
        Arc::new(move || c.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_and_reads_through_the_handle() {
        let c = ManualClock::starting_at(10);
        let f = c.as_clock_fn();
        assert_eq!(f(), 10);
        c.advance(5);
        assert_eq!(f(), 15);
        c.set(100);
        assert_eq!(f(), 100);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let f = system_clock();
        let a = f();
        let b = f();
        assert!(b >= a);
    }
}
