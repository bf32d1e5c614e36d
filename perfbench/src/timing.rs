//! Host-speed-corrected timing.
//!
//! The host flips between clock states for seconds at a time (×1.27
//! between the fastest and the slowest seen), so a raw wall-clock
//! median of identical runs spreads by a fifth. Every timing here is
//! taken in short slices bracketed by the frozen probe
//! ([`crate::reference::Probe`]) and multiplied by
//! `PROBE_NOMINAL_US / mean(probe before, probe after)`: the number
//! reported is the time the slice would have taken on a host where the
//! probe reads exactly `PROBE_NOMINAL_US`.
//!
//! The host has a second state the clock probe does not see: how long
//! an idle vCPU takes to wake. A request that crosses threads pays two
//! wake-ups, 2 us in all in one state and 40 us in the other, and a
//! 70 us request reads 50 % longer for it. The hand-off probe
//! ([`crate::reference::Echo`]) is read before and after every depth-1
//! slice, and a request that crossed threads is reported as
//! `(raw - hand-off now) × clock factor + HANDOFF_NOMINAL_S`.

use crate::reference::{Echo, Probe};
use std::time::Instant;

/// The probe reading every timing is scaled to. A unit, not a
/// measurement: close to the fast state of the reference host so that
/// corrected and raw numbers are of the same size.
pub const PROBE_NOMINAL_US: f64 = 640.0;

/// A probe reading above this multiple of the run's best marks a slice
/// as taken in a slow clock state (`host.slow_slice_share`).
pub const SLOW_STATE: f64 = 1.15;

/// The hand-off cost every cross-thread latency is reported at.
pub const HANDOFF_NOMINAL_S: f64 = 2e-6;

/// A depth-1 latency at nominal clock and nominal hand-off cost.
/// `crossed` is false for a request answered on the caller's thread (a
/// decision-cache hit), which pays no hand-off.
pub fn correct_latency(raw_s: f64, crossed: bool, handoff_s: f64, factor: f64) -> f64 {
    if crossed {
        (raw_s - handoff_s).max(0.0) * factor + HANDOFF_NOMINAL_S
    } else {
        raw_s * factor
    }
}

/// The factor a raw time is multiplied by.
pub fn correction(before_us: f64, after_us: f64) -> f64 {
    PROBE_NOMINAL_US / (0.5 * (before_us + after_us))
}

/// One timed slice.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub raw_s: f64,
    pub factor: f64,
}

impl Slice {
    pub fn corrected_s(&self) -> f64 {
        self.raw_s * self.factor
    }
}

/// A sum of slice parts, corrected and raw side by side.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub corrected_s: f64,
    pub raw_s: f64,
    pub slices: usize,
}

impl Acc {
    /// Adds `part_s` seconds measured inside a slice with `factor`.
    pub fn add(&mut self, part_s: f64, factor: f64) {
        self.add_corrected(part_s, part_s * factor);
    }

    pub fn add_corrected(&mut self, raw_s: f64, corrected_s: f64) {
        self.corrected_s += corrected_s;
        self.raw_s += raw_s;
        self.slices += 1;
    }
}

/// Takes slices; the probe after one slice is the probe before the
/// next, so there is exactly one probe between every two slices.
pub struct Timer {
    probe: Probe,
    echo: Echo,
    last_us: f64,
    /// Every probe reading of the run, in order.
    pub readings_us: Vec<f64>,
    /// Every hand-off reading of the run, in order.
    pub handoffs_s: Vec<f64>,
}

impl Timer {
    pub fn new() -> Self {
        let mut probe = Probe::new();
        probe.read_us(); // first touch of the probe matrix
        let last_us = probe.read_us();
        Self {
            probe,
            echo: Echo::new(),
            last_us,
            readings_us: vec![last_us],
            handoffs_s: Vec::new(),
        }
    }

    /// Takes a fresh "before" reading; call after untimed work that ran
    /// long enough for the clock state to have moved.
    pub fn refresh(&mut self) {
        self.last_us = self.probe.read_us();
        self.readings_us.push(self.last_us);
    }

    /// One hand-off reading, in seconds.
    pub fn handoff_s(&mut self) -> f64 {
        let h = self.echo.read_s();
        self.handoffs_s.push(h);
        h
    }

    pub fn median_handoff_us(&self) -> f64 {
        if self.handoffs_s.is_empty() {
            return 0.0;
        }
        median(self.handoffs_s.clone()) * 1e6
    }

    /// Runs `f` as one slice.
    pub fn slice<R>(&mut self, f: impl FnOnce() -> R) -> (R, Slice) {
        let before = self.last_us;
        let t = Instant::now();
        let r = f();
        let raw_s = t.elapsed().as_secs_f64();
        self.refresh();
        let slice = Slice {
            raw_s,
            factor: correction(before, self.last_us),
        };
        (r, slice)
    }

    /// Share of readings above [`SLOW_STATE`] × the run's best.
    pub fn slow_share(&self) -> f64 {
        let best = self.readings_us.iter().copied().fold(f64::MAX, f64::min);
        let slow = self
            .readings_us
            .iter()
            .filter(|&&r| r > SLOW_STATE * best)
            .count();
        slow as f64 / self.readings_us.len() as f64
    }

    pub fn median_probe_us(&self) -> f64 {
        median(self.readings_us.clone())
    }
}

/// Nearest-rank quantile (`⌈q·n⌉`-th smallest) of an ascending slice of
/// raw samples. Never a histogram bucket edge.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a few values (set-up repetitions, probe readings).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_on_raw_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 5.0);
        assert_eq!(quantile_sorted(&v, 0.9), 9.0);
        assert_eq!(quantile_sorted(&v, 0.91), 10.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 10.0);
        assert_eq!(quantile_sorted(&[7.5], 0.99), 7.5);
        // An infinite sample (a failed request) is an ordinary value.
        assert_eq!(
            quantile_sorted(&[1.0, 2.0, f64::INFINITY], 0.9),
            f64::INFINITY
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// The same 60 us of work read in both hand-off states, the slow
    /// one on a slow clock as well.
    #[test]
    fn a_handoff_state_cancels() {
        let work_s = 60e-6;
        let fast = correct_latency(work_s + 2e-6, true, 2e-6, 1.0);
        let slow = correct_latency(work_s * 1.3 + 40e-6, true, 40e-6, 1.0 / 1.3);
        assert!((fast - 62e-6).abs() < 1e-12, "{fast}");
        assert!((slow / fast - 1.0).abs() < 0.01, "{slow} vs {fast}");
        // A cache hit never crossed threads: only the clock applies.
        assert_eq!(correct_latency(30e-6, false, 40e-6, 0.5), 15e-6);
        // A reading larger than the request itself cannot go negative.
        assert_eq!(correct_latency(3e-6, true, 40e-6, 1.0), HANDOFF_NOMINAL_S);
    }

    /// A host that runs ×1.3 slower for stretches of slices: work and
    /// probe slow down together, so the corrected sum must not move.
    #[test]
    fn a_speed_flip_cancels() {
        let work_s = 0.020; // at nominal speed
        let mut steady = Acc::default();
        let mut flipping = Acc::default();
        let mut prev = 1.0;
        for i in 0..200 {
            let slow = if (i / 7) % 2 == 1 { 1.3 } else { 1.0 };
            steady.add(work_s, correction(PROBE_NOMINAL_US, PROBE_NOMINAL_US));
            // The probe before the slice still saw the previous state.
            flipping.add(
                work_s * slow,
                correction(PROBE_NOMINAL_US * prev, PROBE_NOMINAL_US * slow),
            );
            prev = slow;
        }
        let raw_off = flipping.raw_s / steady.raw_s - 1.0;
        let corrected_off = (flipping.corrected_s / steady.corrected_s - 1.0).abs();
        assert!(raw_off > 0.10, "the flip must show raw: {raw_off}");
        assert!(
            corrected_off < 0.01,
            "and cancel corrected: {corrected_off}"
        );
    }
}
