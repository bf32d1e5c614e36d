//! Drift detection: rolling selector-accuracy against measured labels.
//!
//! Every journaled record carries both the served format and the
//! measured-fastest one, so accuracy against ground truth is free. The
//! detector keeps the last `window` comparisons in a ring, exports the
//! rolling accuracy as a permille gauge (`feedback_drift_accuracy`),
//! and latches a trip once accuracy sinks below [`DRIFT_THRESHOLD`]
//! with enough samples in the window. Tripping is edge-counted
//! (`feedback_drift_tripped_total`), so an operator can tell one long
//! excursion from repeated flapping.

use dnnspmv_obs::{Counter, Gauge, Registry};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Trip when rolling accuracy drops below this fraction.
pub const DRIFT_THRESHOLD: f64 = 0.7;

/// Drift-detector tuning.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Rolling window length (comparisons kept).
    pub window: usize,
    /// Minimum comparisons in the window before the trip threshold is
    /// armed — a two-sample window must not page anyone.
    pub min_samples: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 256,
            min_samples: 32,
        }
    }
}

#[derive(Debug)]
struct DriftInner {
    ring: VecDeque<bool>,
    hits: usize,
    tripped: bool,
}

/// Rolling accuracy window with a latched trip (see module docs).
#[derive(Debug)]
pub struct DriftDetector {
    cfg: DriftConfig,
    inner: Mutex<DriftInner>,
    accuracy_gauge: Gauge,
    samples_gauge: Gauge,
    tripped_total: Counter,
}

impl DriftDetector {
    /// Builds a detector whose gauges live in `registry`.
    pub fn new(cfg: DriftConfig, registry: &Registry) -> Self {
        Self {
            cfg,
            inner: Mutex::new(DriftInner {
                ring: VecDeque::new(),
                hits: 0,
                tripped: false,
            }),
            accuracy_gauge: registry.gauge("feedback_drift_accuracy", &[("unit", "permille")]),
            samples_gauge: registry.gauge("feedback_drift_window_samples", &[]),
            tripped_total: registry.counter("feedback_drift_tripped_total", &[]),
        }
    }

    /// Records one comparison (`hit`: served format == measured best).
    pub fn record(&self, hit: bool) {
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::DRIFT_RECORD) {
            // An injected recording failure drops this comparison; the
            // window simply accumulates evidence more slowly.
            return;
        }
        let mut d = self.inner.lock().expect("drift lock");
        if d.ring.len() == self.cfg.window.max(1) && d.ring.pop_front() == Some(true) {
            d.hits -= 1;
        }
        d.ring.push_back(hit);
        if hit {
            d.hits += 1;
        }
        let acc = d.hits as f64 / d.ring.len() as f64;
        self.accuracy_gauge.set_permille(acc);
        self.samples_gauge.set(d.ring.len() as i64);
        if !d.tripped && d.ring.len() >= self.cfg.min_samples && acc < DRIFT_THRESHOLD {
            d.tripped = true;
            self.tripped_total.inc();
        }
    }

    /// Rolling accuracy (1.0 on an empty window — no evidence of
    /// drift is not evidence of drift).
    pub fn accuracy(&self) -> f64 {
        let d = self.inner.lock().expect("drift lock");
        if d.ring.is_empty() {
            1.0
        } else {
            d.hits as f64 / d.ring.len() as f64
        }
    }

    /// Comparisons currently in the window.
    pub fn samples(&self) -> usize {
        self.inner.lock().expect("drift lock").ring.len()
    }

    /// Whether the trip has latched since the last reset.
    pub fn tripped(&self) -> bool {
        self.inner.lock().expect("drift lock").tripped
    }

    /// Clears the window and the latch — called at promotion, so
    /// post-promotion accuracy is judged on fresh evidence only.
    pub fn reset(&self) {
        let mut d = self.inner.lock().expect("drift lock");
        d.ring.clear();
        d.hits = 0;
        d.tripped = false;
        self.accuracy_gauge.set_permille(1.0);
        self.samples_gauge.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(window: usize, min: usize) -> (DriftDetector, Registry) {
        let reg = Registry::new();
        let d = DriftDetector::new(
            DriftConfig {
                window,
                min_samples: min,
            },
            &reg,
        );
        (d, reg)
    }

    #[test]
    fn trips_below_threshold_only_with_enough_samples() {
        let (d, _reg) = detector(8, 4);
        d.record(false);
        d.record(false);
        assert!(!d.tripped(), "below min_samples");
        d.record(false);
        d.record(false);
        assert!(d.tripped(), "4 misses in a 4-sample window");
        assert_eq!(d.accuracy(), 0.0);
    }

    #[test]
    fn window_slides_and_recovers_accuracy() {
        let (d, _) = detector(4, 2);
        d.record(false);
        assert!(!d.tripped(), "below min_samples");
        d.record(false);
        assert!(d.tripped(), "2 misses in a 2-sample window");
        d.record(false);
        d.record(false);
        for _ in 0..4 {
            d.record(true);
        }
        assert_eq!(d.accuracy(), 1.0, "old misses slid out");
        assert!(d.tripped(), "the trip latches through recovery");
        d.reset();
        assert!(!d.tripped());
        assert_eq!(d.samples(), 0);
        assert_eq!(d.accuracy(), 1.0);
    }

    #[test]
    fn gauges_export_permille_and_trip_edges() {
        let (d, reg) = detector(4, 2);
        let trips = |r: &Registry| {
            r.snapshot()
                .counter("feedback_drift_tripped_total", &[])
                .unwrap_or(0)
        };
        d.record(true);
        d.record(false);
        let acc = reg
            .snapshot()
            .gauge("feedback_drift_accuracy", &[("unit", "permille")])
            .expect("accuracy gauge");
        assert_eq!(acc, 500);
        assert_eq!(trips(&reg), 1, "0.5 in a 2-sample window trips");
        // Re-tripping without a reset does not re-count.
        d.record(false);
        d.record(false);
        assert_eq!(trips(&reg), 1);
        d.reset();
        for _ in 0..2 {
            d.record(false);
        }
        assert_eq!(trips(&reg), 2, "a fresh excursion counts again");
    }
}
