//! The decision-cache key against near-twin matrices, and the hit
//! audit that catches what the key cannot tell apart.
//!
//! The key reads about 2048 entries in a few windows of consecutive
//! entries ([`fingerprint_windows`]), so at the 60 k-nonzero size of
//! perfbench's `service_repeat` workload about one entry in thirty is
//! read. These tests build every structural family at that size plus
//! the derivations the training corpus uses (crop, transpose,
//! block-diagonal combination) and one-entry moves, and pin which of
//! them share a key. CI runs this file optimised
//! (`cargo test --release -p dnnspmv-core`).

use dnnspmv_core::{
    fingerprint_windows, matrix_fingerprint, CacheConfig, FormatSelector, PendingSelection,
    Selection, SelectorConfig, SelectorServer, SelectorService, ServerConfig, CACHE_AUDIT_PERIOD,
    FINGERPRINT_COORD_SAMPLE,
};
use dnnspmv_gen::{augment, generate, Augmentation, Dataset, DatasetSpec, MatrixClass};
use dnnspmv_nn::{CnnConfig, TrainConfig};
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::ReprConfig;
use dnnspmv_sparse::CooMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Nonzeros per matrix, as in `service_repeat`.
const NNZ: usize = 60_000;

/// A `class` matrix of about [`NNZ`] nonzeros: the density of a
/// 4096-edge preview gives the edge, clamped to `service_repeat`'s
/// 2 000–20 000 (Hypersparse cannot reach the target inside it).
fn sized(class: MatrixClass, seed: u64) -> CooMatrix<f32> {
    let preview = generate(class, 4096, seed);
    let per_row = preview.nnz() as f64 / preview.nrows() as f64;
    let dim = ((NNZ as f64 / per_row).round() as usize).clamp(2_000, 20_000);
    generate(class, dim, seed)
}

fn triplets(m: &CooMatrix<f32>) -> Vec<(usize, usize, f32)> {
    m.iter().collect()
}

/// Whether position `q` may be the one entry a derivation changes: one
/// the key skips, or any entry at or below the sample size, where the
/// key reads every entry.
fn unsampled(m: &CooMatrix<f32>, q: usize) -> bool {
    m.nnz() <= FINGERPRINT_COORD_SAMPLE || !fingerprint_windows(m.nnz()).any(|w| w.contains(&q))
}

/// Moves one entry the key never reads (the first unsampled position
/// past the first quarter) to a free column of the last row: dims and
/// nnz stay, and every sampled position between the two shifts by one
/// entry.
fn move_to_last_row(m: &CooMatrix<f32>) -> CooMatrix<f32> {
    let mut t = triplets(m);
    let q = (m.nnz() / 4..m.nnz())
        .find(|&q| unsampled(m, q))
        .expect("an unsampled position");
    let last = m.nrows() - 1;
    let taken: Vec<usize> = t.iter().filter(|e| e.0 == last).map(|e| e.1).collect();
    let free = (0..m.ncols())
        .find(|c| !taken.contains(c))
        .expect("the last row has a free column");
    let v = t.remove(q).2;
    t.push((last, free, v));
    CooMatrix::from_triplets(m.nrows(), m.ncols(), &t).expect("in range")
}

/// Shifts one unsampled entry to a free neighbouring column of its own
/// row without changing its rank in the row. Past the sample size every
/// sampled coordinate and every row length stay the same, so the key
/// cannot change: this is the approximation the audit exists for.
fn shift_unsampled_column(m: &CooMatrix<f32>) -> CooMatrix<f32> {
    let (rows, cols) = (m.row_indices(), m.col_indices());
    let q = (1..m.nnz() - 1)
        .find(|&q| {
            unsampled(m, q)
                && cols[q] as usize + 1 < m.ncols()
                && (rows[q + 1] != rows[q] || cols[q + 1] > cols[q] + 1)
        })
        .expect("an unsampled entry with a free column to its right");
    let mut t = triplets(m);
    t[q].1 += 1;
    CooMatrix::from_triplets(m.nrows(), m.ncols(), &t).expect("in range")
}

/// Every family at `service_repeat` size with its three augmentation
/// twins and two one-entry moves, named `Class` and `Class/derivation`.
fn corpus() -> &'static [(String, CooMatrix<f32>)] {
    static CORPUS: OnceLock<Vec<(String, CooMatrix<f32>)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let bases: Vec<_> = MatrixClass::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| (format!("{c:?}"), sized(c, 0x7a11 + i as u64)))
            .collect();
        let mut out = Vec::new();
        for (i, (name, m)) in bases.iter().enumerate() {
            let partner = &bases[(i + 1) % bases.len()].1;
            out.push((name.clone(), m.clone()));
            for op in Augmentation::ALL {
                let twin = augment(m, partner, op, 0x5eed + i as u64);
                out.push((format!("{name}/{op:?}"), twin));
            }
            out.push((format!("{name}/move-to-last-row"), move_to_last_row(m)));
            out.push((
                format!("{name}/shift-unsampled-column"),
                shift_unsampled_column(m),
            ));
        }
        out
    })
}

fn same_structure(a: &CooMatrix<f32>, b: &CooMatrix<f32>) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.row_indices() == b.row_indices()
        && a.col_indices() == b.col_indices()
}

/// Keys differ wherever structures differ, with one named exception:
/// the `shift-unsampled-column` twin of each family whose base is past
/// the sample size shares its base's key by construction, and it must —
/// the list is the key's blind spot, not a tolerance. (Hypersparse stays
/// under 2048 nonzeros at this edge, so every entry is read.)
#[test]
fn twin_corpus_keys_differ_wherever_structures_differ() {
    let corpus = corpus();
    let mut collisions = Vec::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    for (j, (name, m)) in corpus.iter().enumerate() {
        let key = matrix_fingerprint(m);
        if let Some(&i) = seen.get(&key) {
            if !same_structure(&corpus[i].1, m) {
                collisions.push(format!("{} ~ {name}", corpus[i].0));
            }
        } else {
            seen.insert(key, j);
        }
    }
    let named: Vec<String> = corpus
        .iter()
        .filter(|(name, m)| !name.contains('/') && m.nnz() > FINGERPRINT_COORD_SAMPLE)
        .map(|(name, _)| format!("{name} ~ {name}/shift-unsampled-column"))
        .collect();
    assert_eq!(
        named.len(),
        MatrixClass::ALL.len() - 1,
        "all but Hypersparse"
    );
    assert_eq!(collisions, named);
}

/// The key's cost is the cache lines it fetches: at `service_repeat` size
/// its sample spans at most 256 distinct 64-byte lines of each index
/// array (a stride of one entry in thirty would span about 2 000), and it
/// is still the whole sample.
#[test]
fn fingerprint_sample_spans_few_cache_lines() {
    let lines = |index: &[u32], positions: &[usize]| {
        let mut l: Vec<usize> = positions
            .iter()
            .map(|&p| (index.as_ptr() as usize + 4 * p) / 64)
            .collect();
        l.dedup();
        l.len()
    };
    for (name, m) in corpus().iter().filter(|(_, m)| m.nnz() > 40_000) {
        let positions: Vec<usize> = fingerprint_windows(m.nnz()).flatten().collect();
        assert_eq!(positions.len(), FINGERPRINT_COORD_SAMPLE, "{name}");
        let (rows, cols) = (
            lines(m.row_indices(), &positions),
            lines(m.col_indices(), &positions),
        );
        assert!(
            rows <= 256 && cols <= 256,
            "{name}: {rows} and {cols} lines"
        );
    }
}

/// A small trained selector (the CNN rung only, every answer cached).
fn service() -> SelectorService {
    static CNN: OnceLock<FormatSelector> = OnceLock::new();
    let cnn = CNN.get_or_init(|| {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 140,
            n_augmented: 0,
            dim_min: 48,
            dim_max: 112,
            seed: 27,
            class_weights: [1.0; 7],
        });
        let intel = PlatformModel::intel_cpu();
        let labels = label_dataset(&data.matrices, &intel);
        let cfg = SelectorConfig {
            repr_config: ReprConfig {
                image_size: 32,
                hist_rows: 32,
                hist_bins: 16,
            },
            cnn: CnnConfig {
                conv_channels: [4, 8, 8],
                hidden: 16,
                seed: 5,
            },
            train: TrainConfig {
                epochs: 8,
                batch_size: 16,
                lr: 2e-3,
                ..TrainConfig::default()
            },
            ..SelectorConfig::default()
        };
        FormatSelector::train_with_labels(&data.matrices, &labels, intel.formats().to_vec(), &cfg).0
    });
    SelectorService::new(Some(cnn.clone()), None).expect("trained selector validates")
}

fn cached_server() -> SelectorServer<f32> {
    SelectorServer::new(
        service(),
        ServerConfig {
            workers: 1,
            cache: CacheConfig::enabled(128),
            ..ServerConfig::default()
        },
    )
}

/// A `service_repeat`-sized server run over the twin corpus: each
/// matrix is submitted `CACHE_AUDIT_PERIOD + 1` times in a row, so every
/// one of them is audited once (an entry audits one hit in any
/// `CACHE_AUDIT_PERIOD` consecutive hits of its own). Every audit is
/// judged under the model that made the cached answer, none disagrees,
/// and the ledger matches a per-entry count of the submissions.
#[test]
fn twin_corpus_server_run_audits_without_mismatch() {
    let server = cached_server();
    let reps = CACHE_AUDIT_PERIOD + 1;
    let mut hits_by_key: HashMap<u64, u64> = HashMap::new();
    let (mut misses, mut audits) = (0, 0);
    for (name, m) in corpus() {
        let m = Arc::new(m.clone());
        for _ in 0..reps {
            match hits_by_key.get_mut(&matrix_fingerprint(m.as_ref())) {
                Some(h) => {
                    *h += 1;
                    audits += u64::from(h.is_multiple_of(CACHE_AUDIT_PERIOD));
                }
                None => {
                    hits_by_key.insert(matrix_fingerprint(m.as_ref()), 0);
                    misses += 1;
                }
            }
            server
                .submit(Arc::clone(&m), None)
                .and_then(PendingSelection::wait)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
    let r = server.report();
    let c = &r.cache;
    assert_eq!(r.submitted, corpus().len() as u64 * reps);
    assert_eq!(c.stale + c.evicted, 0, "{r:?}");
    assert_eq!((c.misses, c.audited), (misses, audits), "{r:?}");
    assert_eq!(c.hits + c.audited + c.misses, r.submitted, "{r:?}");
    assert_eq!(c.audited, corpus().len() as u64, "{r:?}");
    assert_eq!(c.audit_mismatches, 0, "{r:?}");
    let matched = server
        .metrics_snapshot()
        .counter("serve_cache_audit_total", &[("result", "match")])
        .unwrap_or(0);
    assert_eq!(matched, c.audited, "every audit was judged");
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
}

/// Two matrices of 8 000 rows × 8 entries that agree on everything
/// the key reads — past the sample size it reads the entries inside
/// [`fingerprint_windows`], about one row in thirty, plus row lengths,
/// which are all 8 here: an 8-diagonal band, and a scatter that copies
/// the band's rows the windows touch and draws every other row's
/// entries at random (`seed`).
fn forced_twins(seed: u64) -> (CooMatrix<f32>, CooMatrix<f32>) {
    let (n, per_row) = (8_000, 8);
    let ncols = n + per_row - 1;
    let band: Vec<_> = (0..n)
        .flat_map(|i| (i..i + per_row).map(move |c| (i, c, 1.0f32)))
        .collect();
    let mut read = vec![false; n];
    for p in fingerprint_windows(n * per_row).flatten() {
        read[p / per_row] = true;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scattered = Vec::with_capacity(n * per_row);
    for (i, &read) in read.iter().enumerate() {
        let mut cols: Vec<usize> = Vec::with_capacity(per_row);
        if read {
            cols.extend(i..i + per_row);
        }
        while cols.len() < per_row {
            let c = rng.random_range(0..ncols);
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        scattered.extend(cols.into_iter().map(|c| (i, c, 1.0f32)));
    }
    let a = CooMatrix::from_triplets(n, ncols, &band).expect("in range");
    let b = CooMatrix::from_triplets(n, ncols, &scattered).expect("in range");
    (a, b)
}

/// Forced twins the trained selector decides differently, with those
/// decisions.
fn twins_deciding_differently() -> (CooMatrix<f32>, CooMatrix<f32>, Selection, Selection) {
    let svc = service();
    (0..8)
        .map(|seed| {
            let (a, b) = forced_twins(seed);
            let (fa, fb) = (svc.select(&a), svc.select(&b));
            (a, b, fa, fb)
        })
        .find(|(_, _, fa, fb)| fa.format != fb.format)
        .expect("some scatter of the band changes the decision")
}

/// A forced collision with different decisions: the audited hit on the
/// look-alike returns the fresh answer, counts one mismatch, and leaves
/// the fresh answer cached for the hits after it.
#[test]
fn audit_returns_the_fresh_answer_on_a_forced_collision() {
    let (a, b, fresh_a, fresh_b) = twins_deciding_differently();
    assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&b));

    let server = cached_server();
    // One miss, then hits 1..=31 served from the cache.
    for _ in 0..CACHE_AUDIT_PERIOD {
        assert_eq!(server.select(&a).unwrap().format, fresh_a.format);
    }
    // Hit 32 is the look-alike's, and it is the audit.
    assert_eq!(server.select(&b).unwrap().format, fresh_b.format);
    let r = server.report();
    assert_eq!(
        (r.cache.hits, r.cache.audited, r.cache.audit_mismatches),
        (CACHE_AUDIT_PERIOD - 1, 1, 1),
        "{r:?}"
    );
    assert_eq!(r.cache.updated, 1, "the audit refreshed the entry");
    // The refreshed entry now answers for both twins.
    assert_eq!(server.select(&b).unwrap().format, fresh_b.format);
    assert_eq!(server.select(&a).unwrap().format, fresh_b.format);
    assert!(server.report().path_accounted());
}

/// Round-robin traffic over 32 matrices, two of them forced twins that
/// share one entry: each round gives the shared entry two hits, and the
/// per-entry audit still lands on the look-alike within
/// `CACHE_AUDIT_PERIOD` of the entry's own hits. (A server-wide hit
/// count, or an even period, would keep auditing the same member of
/// every such cycle.)
#[test]
fn round_robin_traffic_audits_a_colliding_entry_within_its_period() {
    let (a, b, fresh_a, fresh_b) = twins_deciding_differently();
    let classes = MatrixClass::ALL.iter().cycle();
    let others: Vec<CooMatrix<f32>> = (0..30)
        .zip(classes)
        .map(|(k, &class)| generate(class, 64 + 9 * k, k as u64))
        .collect();
    let mut keys: Vec<u64> = others.iter().map(matrix_fingerprint).collect();
    keys.push(matrix_fingerprint(&a));
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), others.len() + 1, "31 entries, one shared");
    let server = cached_server();
    let mut shared_hits = 0;
    let mut rounds = 0;
    while shared_hits < CACHE_AUDIT_PERIOD {
        rounds += 1;
        for m in &others {
            server.select(m).expect("served");
        }
        // The band inserts the shared entry in round 1 and hits it after.
        assert_eq!(server.select(&a).unwrap().format, fresh_a.format);
        shared_hits += u64::from(rounds > 1);
        shared_hits += 1;
        let got = server.select(&b).unwrap().format;
        if shared_hits < CACHE_AUDIT_PERIOD {
            assert_eq!(got, fresh_a.format, "hit {shared_hits}: the look-alike's");
        } else {
            assert_eq!(got, fresh_b.format, "hit {shared_hits}: the audit");
        }
    }
    let r = server.report();
    assert!(shared_hits <= 32);
    assert_eq!(r.cache.misses, others.len() as u64 + 1, "{r:?}");
    assert_eq!(
        (r.cache.audited, r.cache.audit_mismatches),
        (1, 1),
        "only the shared entry reached its period: {r:?}"
    );
}
