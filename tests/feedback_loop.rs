//! End-to-end closed loop: drift trips on a simulated environment
//! change, an evolve pass fine-tunes a candidate from the journal, the
//! shadow gate promotes it (and rejects a poisoned one), accuracy
//! recovers, and a forced bad promotion rolls back.
//!
//! The environment change is the sampler's deterministic `ModelTimer`
//! rotating its cost vector — no wall-clock timing in the functional
//! gates, so they are stable in debug builds. What the sampling tap
//! costs a served request is a wall-clock ratio: that one test is
//! `#[ignore]`d and runs `--release` in the CI soak job.

use dnnspmv_bench::closed_loop::{overhead_probe, run_closed_loop, ClosedLoopConfig};
use dnnspmv_feedback::{DriftConfig, DRIFT_THRESHOLD};

fn config() -> ClosedLoopConfig {
    ClosedLoopConfig {
        matrices: 60,
        train_epochs: 3,
        evolve_epochs: 14,
        rounds_per_phase: 2,
        drift: DriftConfig {
            window: 64,
            min_samples: 16,
        },
        ..ClosedLoopConfig::default()
    }
}

#[test]
fn closed_loop_drifts_evolves_promotes_and_rolls_back() {
    let report = run_closed_loop(&config());

    // Steady phase: the selector agrees with the (unrotated) measured
    // labels and the detector stays quiet.
    assert!(
        report.steady_accuracy >= DRIFT_THRESHOLD,
        "steady accuracy {:.3} below threshold",
        report.steady_accuracy
    );
    // The environment change must trip the detector...
    assert!(report.drift_tripped, "drift never tripped");
    assert!(
        report.drifted_accuracy < DRIFT_THRESHOLD,
        "drifted accuracy {:.3} did not collapse",
        report.drifted_accuracy
    );
    // ...the journal must replay cleanly...
    assert_eq!(report.journal_corrupt, 0);
    assert!(report.journal_records > 0);
    assert_eq!(report.shed_total, 0, "this load must not shed samples");
    // ...the shadow gate must promote the honest candidate and hold
    // against the poisoned one...
    assert!(
        report.promoted,
        "shadow gate rejected the honest candidate: incumbent {:.3} vs candidate {:.3}",
        report.shadow.incumbent_accuracy, report.shadow.candidate_accuracy
    );
    assert!(
        report.poisoned_rejected,
        "shadow gate promoted a poisoned candidate at {:.3}",
        report.poisoned_accuracy
    );
    // ...promotion must recover accuracy on fresh evidence...
    assert!(
        report.recovered,
        "post-promotion accuracy {:.3} below threshold {:.3}",
        report.recovered_accuracy, DRIFT_THRESHOLD
    );
    // ...and the forced bad promotion must roll back, after which the
    // good generation serves again.
    assert!(report.rollback, "bad promotion was not rolled back");
    assert_eq!(report.rollback_total, 1);
    assert!(
        report.post_rollback_accuracy >= DRIFT_THRESHOLD,
        "post-rollback accuracy {:.3} did not recover",
        report.post_rollback_accuracy
    );
    assert!(report.gates_passed(), "aggregate gate disagrees with parts");
}

/// The serve-path budget for the sampling tap: a tapped server's
/// sequential p50 stays within 10 % of an identical untapped one.
#[test]
#[ignore = "wall-clock ratio: release only"]
fn sampling_tap_stays_within_overhead_budget() {
    let (plain_us, tapped_us) = overhead_probe(&config());
    let ratio = tapped_us / plain_us;
    assert!(
        ratio <= 1.10,
        "sampling tap costs {ratio:.3}x ({tapped_us:.1} us vs {plain_us:.1} us)"
    );
}
