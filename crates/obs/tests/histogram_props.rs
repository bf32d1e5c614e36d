//! Property suite pinning the latency-histogram contract:
//!
//! * recording then snapshotting reproduces the exact aggregates
//!   (count, sum, min, max) of the recorded multiset;
//! * every quantile lands within one bucket of a sorted-vector oracle
//!   that uses the same `⌈q·n⌉` rank rule;
//! * concurrent recording from 8 threads loses no counts.

use dnnspmv_obs::{bucket_index, HistogramSnapshot, LatencyHistogram, BUCKETS};
use proptest::prelude::*;

/// Log-uniform-ish values: a full-range draw shifted right by a random
/// amount, so cases cover every octave from sub-microsecond to the top
/// of the `u64` range rather than clustering near `u64::MAX`.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u64..u64::MAX, 0u32..60).prop_map(|(raw, shift)| raw >> shift),
        0..250,
    )
}

fn snap_of(values: &[u64]) -> HistogramSnapshot {
    let h = LatencyHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// The oracle the quantile estimate must stay within one bucket of:
/// the rank-`⌈q·n⌉` element of the sorted values (rank 1 for `q = 0`).
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn snapshot_aggregates_are_exact(values in arb_values()) {
        let s = snap_of(&values);
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        prop_assert_eq!(s.min, values.iter().copied().min().unwrap_or(u64::MAX));
        prop_assert_eq!(s.max, values.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        prop_assert_eq!(s.buckets.len(), BUCKETS);
        prop_assert_eq!(s.is_empty(), values.is_empty());
    }

    #[test]
    fn every_value_lands_in_its_bucket(values in arb_values()) {
        let s = snap_of(&values);
        for &v in &values {
            prop_assert!(s.buckets[bucket_index(v)] >= 1, "v={v}");
        }
    }

    #[test]
    fn quantiles_stay_within_one_bucket_of_the_sorted_oracle(
        values in arb_values(),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        if values.is_empty() {
            return Ok(());
        }
        let s = snap_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in qs {
            let want = oracle_quantile(&sorted, q);
            let got = s.quantile(q);
            let (bw, bg) = (bucket_index(want), bucket_index(got));
            prop_assert!(
                bw.abs_diff(bg) <= 1,
                "q={q}: estimate {got} (bucket {bg}) vs oracle {want} (bucket {bw})"
            );
            prop_assert!((s.min..=s.max).contains(&got), "q={q}: {got} outside observed range");
        }
        // The endpoints share their oracle's bucket exactly (rank 1 and
        // rank n always resolve to the buckets holding min and max).
        prop_assert_eq!(bucket_index(s.quantile(0.0)), bucket_index(sorted[0]));
        prop_assert_eq!(
            bucket_index(s.quantile(1.0)),
            bucket_index(*sorted.last().unwrap())
        );
    }

    #[test]
    fn concurrent_recording_from_eight_threads_loses_nothing(values in arb_values()) {
        const THREADS: usize = 8;
        let h = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = &h;
                let values = &values;
                scope.spawn(move || {
                    for &v in values.iter().skip(t).step_by(THREADS) {
                        h.record(v);
                    }
                });
            }
        });
        let s = h.snapshot();
        // Every thread's records survived: the concurrent snapshot is
        // bit-identical to a single-threaded recording of the same
        // multiset (bucket counts are order-independent).
        prop_assert_eq!(s, snap_of(&values));
    }
}
