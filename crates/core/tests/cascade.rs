//! The cost-ordered cascade: a matrix whose tree feature pass costs less
//! than one CNN forward, and whose tree leaf was pure in training, is
//! answered by the tree before any forward runs. Every other request (an
//! impure leaf, a matrix above the gate, a breaker probe, a cache audit)
//! takes the CNN path exactly as before. `SelectorService::select` asks
//! the tree first and a server asks it at admission, fault hook or not;
//! `SelectorService::select_batch`, the ladder a worker runs, starts at
//! the CNN.

use dnnspmv_core::{
    BreakerState, CacheConfig, CnnFault, CnnRungOutcome, DtSelector, FormatSelector,
    PendingSelection, SelectGuard, Selection, SelectionSource, SelectorConfig, SelectorServer,
    SelectorService, ServeError, ServeHooks, ServeTap, ServerConfig, ServerReport,
    BREAKER_OPEN_BACKOFF, TREE_UNIT_MACS,
};
use dnnspmv_gen::{Dataset, DatasetSpec};
use dnnspmv_nn::{CnnConfig, TrainConfig};
use dnnspmv_obs::ManualClock;
use dnnspmv_platform::{label_dataset, PlatformModel};
use dnnspmv_repr::ReprConfig;
use dnnspmv_sparse::CooMatrix;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

/// A small CNN and the tree trained beside it on the same labels, plus
/// their training matrices (edge 48–112, all below the gate).
fn fixture() -> &'static (FormatSelector, DtSelector, Dataset) {
    static FIXTURE: OnceLock<(FormatSelector, DtSelector, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 80,
            n_augmented: 20,
            dim_min: 48,
            dim_max: 112,
            seed: 41,
            ..DatasetSpec::default()
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
                epochs: 2,
                batch_size: 16,
                lr: 2e-3,
                ..TrainConfig::default()
            },
            ..SelectorConfig::default()
        };
        let (cnn, _) = FormatSelector::train_with_labels(
            &data.matrices,
            &labels,
            intel.formats().to_vec(),
            &cfg,
        );
        let dt = DtSelector::train(&data.matrices, &labels, intel.formats().to_vec());
        (cnn, dt, data)
    })
}

fn service() -> SelectorService {
    let (cnn, dt, _) = fixture();
    SelectorService::new(Some(cnn.clone()), Some(dt.clone())).unwrap()
}

/// Fresh matrices of edge 384–768 whose feature pass costs more than a
/// forward: the gate keeps all of them away from the tree.
fn larger() -> &'static [CooMatrix<f32>] {
    static LARGER: OnceLock<Vec<CooMatrix<f32>>> = OnceLock::new();
    LARGER.get_or_init(|| {
        let data = Dataset::generate(&DatasetSpec {
            n_base: 16,
            n_augmented: 0,
            dim_min: 384,
            dim_max: 768,
            seed: 43,
            ..DatasetSpec::default()
        });
        let above: Vec<_> = data
            .matrices
            .into_iter()
            .filter(|m| units(m) > gate_units())
            .collect();
        assert!(above.len() >= 6, "only {} above the gate", above.len());
        above
    })
}

/// Largest `nnz + nrows + ncols` the fixture's tree is asked first for.
fn gate_units() -> usize {
    (fixture().0.net.macs(1) / TREE_UNIT_MACS) as usize
}

fn units(m: &CooMatrix<f32>) -> usize {
    m.nnz() + m.nrows() + m.ncols()
}

/// The fixture matrices the tree answers first, and those it does not.
fn split() -> (Vec<&'static CooMatrix<f32>>, Vec<&'static CooMatrix<f32>>) {
    let svc = service();
    fixture()
        .2
        .matrices
        .iter()
        .partition(|m| svc.tree_first(*m).is_some())
}

fn one(
    svc: &SelectorService,
    m: &CooMatrix<f32>,
    guard: SelectGuard,
) -> (Selection, CnnRungOutcome) {
    let g = svc.select_batch(&[(m, guard)])[0];
    (g.selection.expect("no deadline"), g.cnn)
}

#[test]
fn pure_leaf_answers_equal_the_tree_and_impure_leaves_reach_the_cnn() {
    let (cnn, dt, data) = fixture();
    assert!(data.matrices.iter().all(|m| units(m) <= gate_units()));
    let svc = service();
    let (first, rest) = split();
    assert!(!first.is_empty() && !rest.is_empty(), "both kinds present");
    for m in &first {
        let sel = svc.select(*m);
        assert_eq!(sel.source, SelectionSource::Tree);
        assert_eq!(sel.confidence, None);
        assert_eq!(sel.format, dt.predict(*m));
    }
    for m in &rest {
        // Below the gate, so only an impure leaf sends it on.
        assert_eq!(dt.predict_if_pure(*m), None);
        let sel = svc.select(*m);
        assert_eq!(sel.source, SelectionSource::Cnn);
        assert_eq!(sel.format, cnn.predict(*m));
    }
    let r = svc.report();
    assert_eq!(r.cnn_bypassed, first.len() as u64);
    assert_eq!(r.tree_ok, first.len() as u64);
    assert_eq!(r.cnn_ok, rest.len() as u64);
    assert_eq!(r.tree_panic + r.default_used + r.cnn_skipped, 0);
}

#[test]
fn matrices_above_the_gate_never_run_the_tree_first() {
    let (cnn, dt, _) = fixture();
    let svc = service();
    // The gate is exact: `units · TREE_UNIT_MACS ≤ macs(1)`. A square
    // matrix filled row-major to exactly the limit is decided by its
    // leaf; one more entry puts it over.
    let n = 64;
    let filled = |k: usize| {
        assert!(k <= n * n);
        let t: Vec<_> = (0..k).map(|p| (p / n, p % n, 1.0f32)).collect();
        CooMatrix::from_triplets(n, n, &t).unwrap()
    };
    let at = filled(gate_units() - 2 * n);
    let over = filled(gate_units() - 2 * n + 1);
    assert!(units(&at) as u64 * TREE_UNIT_MACS <= cnn.net.macs(1));
    assert_eq!(svc.tree_first(&at), dt.predict_if_pure(&at));
    assert_eq!(svc.tree_first(&over), None);

    // Larger matrices whose leaves are pure still reach the CNN, and
    // the tree is not even run: `tree_ok` does not move.
    let big = larger();
    assert!(
        big.iter().any(|m| dt.predict_if_pure(m).is_some()),
        "some large matrix lands in a pure leaf"
    );
    let before = svc.report();
    for m in big {
        assert_eq!(svc.select(m).source, SelectionSource::Cnn);
    }
    let r = svc.report();
    assert_eq!(r.tree_ok, before.tree_ok);
    assert_eq!(r.cnn_bypassed, before.cnn_bypassed);
    assert_eq!(r.cnn_ok, before.cnn_ok + big.len() as u64);

    // The same at a server's admission: every one is queued and answered
    // by a worker's CNN pass, and the tree never runs.
    let server: SelectorServer<f32> = SelectorServer::new(service(), ServerConfig::default());
    for m in big {
        assert_eq!(server.select(m).unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.tree_first_served, 0);
    assert_eq!(r.single_served + r.batched_served, big.len() as u64);
    assert_eq!((r.ladder.tree_ok, r.ladder.cnn_bypassed), (0, 0));
    assert_eq!(r.ladder.cnn_ok, big.len() as u64);
}

#[test]
fn probes_and_injected_faults_always_reach_the_cnn() {
    let (first, rest) = split();
    let m = first[0];
    // Service level: the batch ladder starts at the CNN, so a fault, or
    // none, meets it even on a matrix the tree would answer.
    let svc = service();
    let guard = |inject| SelectGuard {
        inject,
        ..Default::default()
    };
    let (sel, out) = one(&svc, m, guard(CnnFault::Panic));
    assert_eq!(
        (out, sel.source),
        (CnnRungOutcome::Panicked, SelectionSource::Tree)
    );
    let (sel, out) = one(&svc, m, guard(CnnFault::NonFinite));
    assert_eq!(
        (out, sel.source),
        (CnnRungOutcome::NonFinite, SelectionSource::Tree)
    );
    let (sel, out) = one(&svc, m, guard(CnnFault::None));
    assert_eq!(
        (out, sel.source),
        (CnnRungOutcome::Answered, SelectionSource::Cnn)
    );
    let r = svc.report();
    assert_eq!((r.cnn_panic, r.cnn_nonfinite, r.cnn_ok), (1, 1, 1));
    assert_eq!((r.cnn_bypassed, r.tree_ok), (0, 2));

    // Server level: faults go to a CNN-bound matrix `c`, while the
    // tree-first matrix `m` is answered at admission in between.
    let c = rest[0];
    let clock = ManualClock::new();
    let panicking = Arc::new(AtomicBool::new(false));
    let p_h = Arc::clone(&panicking);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if p_h.load(Ordering::SeqCst) {
                CnnFault::Panic
            } else {
                CnnFault::None
            }
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(service(), cfg, hooks, clock.as_clock_fn());
    let serve = |m: &CooMatrix<f32>| server.select(m).unwrap().source;
    // Two injected panics, then a tree-first answer: a bypass is no
    // signal, so the failure streak survives it and the third panic
    // trips the breaker, as it would have with no request in between.
    panicking.store(true, Ordering::SeqCst);
    assert_eq!(
        (serve(c), serve(c)),
        (SelectionSource::Tree, SelectionSource::Tree)
    );
    assert_eq!(serve(m), SelectionSource::Tree);
    assert_eq!(server.report().breaker.consecutive_failures, 2);
    assert_eq!(serve(c), SelectionSource::Tree);
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Open, "{r:?}");
    assert_eq!((r.ladder.cnn_panic, r.ladder.cnn_bypassed), (3, 1));
    // Open: the CNN-bound request is demoted; the tree-first one is
    // answered at admission as before, not demoted.
    assert_eq!(
        (serve(c), serve(m)),
        (SelectionSource::Tree, SelectionSource::Tree)
    );
    assert_eq!(
        (
            server.report().breaker_demoted,
            server.report().ladder.cnn_skipped
        ),
        (1, 1)
    );
    // Fault clears, backoff elapses: the tree-first matrix does not
    // take the probe; the next CNN-bound request does, and closes the
    // breaker.
    panicking.store(false, Ordering::SeqCst);
    clock.advance(BREAKER_OPEN_BACKOFF.as_nanos() as u64);
    assert_eq!(serve(m), SelectionSource::Tree);
    assert_eq!(server.report().breaker.to_half_open, 0);
    assert_eq!(serve(c), SelectionSource::Cnn);
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Closed);
    assert_eq!(r.probes_ok, 1);
    assert_eq!(
        (
            r.breaker.to_open,
            r.breaker.to_half_open,
            r.breaker.to_closed
        ),
        (1, 1, 1)
    );
    assert_eq!(serve(m), SelectionSource::Tree);
    let r = server.report();
    assert_eq!((r.ladder.cnn_bypassed, r.tree_first_served), (4, 4));
    assert_eq!(r.accounted(), r.submitted);
}

#[test]
fn after_reload_answers_come_from_the_new_cnn() {
    let (cnn, _, _) = fixture();
    let (first, _) = split();
    let m = first[0];
    let clock = ManualClock::new().as_clock_fn();
    let hooks_fault = Arc::new(AtomicBool::new(false));
    let h = Arc::clone(&hooks_fault);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if h.load(Ordering::SeqCst) {
                CnnFault::Panic
            } else {
                CnnFault::None
            }
        })),
    };
    let server = SelectorServer::with_parts(service(), ServerConfig::default(), hooks, clock);
    assert_eq!(server.select(m).unwrap().source, SelectionSource::Tree);

    let dir = std::env::temp_dir().join(format!("dnnspmv-cascade-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    cnn.save(path.to_string_lossy().as_ref()).unwrap();
    assert_eq!(server.reload_model(&path).unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);

    // The reloaded CNN is not shadowed by the tree trained beside its
    // predecessor; every tree-first matrix now gets the CNN's answer.
    for m in &first {
        let sel = server.select(m).unwrap();
        assert_eq!(sel.source, SelectionSource::Cnn);
        assert_eq!(sel.format, cnn.predict(*m));
    }
    // The old tree is still the fallback rung.
    hooks_fault.store(true, Ordering::SeqCst);
    assert_eq!(server.select(m).unwrap().source, SelectionSource::Tree);
    let r = server.report();
    assert_eq!(r.ladder.cnn_bypassed, 1, "only the pre-reload answer");
    assert_eq!(r.ladder.cnn_ok, first.len() as u64);
    assert_eq!(r.ladder.cnn_panic, 1);
    assert_eq!(r.accounted(), r.submitted);
}

#[test]
fn tree_first_answers_never_enter_the_cache() {
    let (first, rest) = split();
    let server: SelectorServer<f32> = SelectorServer::new(
        service(),
        ServerConfig {
            workers: 1,
            cache: CacheConfig::enabled(64),
            ..ServerConfig::default()
        },
    );
    for m in first.iter().take(4) {
        for _ in 0..3 {
            assert_eq!(server.select(m).unwrap().source, SelectionSource::Tree);
        }
    }
    let r = server.report();
    assert_eq!(
        (r.cache.inserted, r.cache.updated, r.cache.entries),
        (0, 0, 0)
    );
    assert_eq!((r.served_cache, r.cache.misses), (0, 12));
    // No hook: every one was answered at admission.
    assert_eq!(r.tree_first_served, 12);
    assert_eq!(r.single_served + r.batched_served, 0);
    // A CNN answer beside them is cached and hit as before.
    let m = rest[0];
    let cnn = server.select(m).unwrap();
    assert_eq!(cnn.source, SelectionSource::Cnn);
    assert_eq!(server.select(m).unwrap(), cnn);
    let r = server.report();
    assert_eq!(
        (r.cache.inserted, r.cache.entries, r.served_cache),
        (1, 1, 1)
    );
    assert_eq!(r.ladder.cnn_bypassed, 12);
}

/// Tree-first, impure-leaf and above-gate matrices interleaved, served
/// by four concurrent clients through a small queue with the cache on.
/// Each matrix appears well under CACHE_AUDIT_PERIOD times, so no hit is
/// audited and every CNN-served answer is a CNN rung answer.
fn mixed_stream(hooks: ServeHooks) -> ServerReport {
    let (first, rest) = split();
    let mix: Vec<&CooMatrix<f32>> = first
        .iter()
        .take(12)
        .copied()
        .chain(rest.iter().copied())
        .chain(larger().iter().take(4))
        .collect();
    let server: SelectorServer<f32> = SelectorServer::with_parts(
        service(),
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            max_batch: 4,
            cache: CacheConfig::enabled(64),
            ..ServerConfig::default()
        },
        hooks,
        dnnspmv_core::system_clock(),
    );
    const CLIENTS: usize = 4;
    let total = 8 * mix.len();
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (server, mix) = (&server, &mix);
            scope.spawn(move || {
                for i in (t..total).step_by(CLIENTS) {
                    let m = Arc::new(mix[i % mix.len()].clone());
                    let _ = server.submit(m, None).and_then(|p| p.wait());
                }
            });
        }
    });
    let r = server.report();
    assert_eq!(r.submitted, total as u64);
    assert_eq!(r.accounted(), r.submitted, "{r:?}");
    assert!(r.path_accounted(), "{r:?}");
    assert_eq!(r.ladder.answered(), r.served - r.served_cache);
    assert_eq!(r.served_cnn, r.ladder.cnn_ok);
    assert_eq!(r.served_tree, r.ladder.tree_ok);
    assert!(r.ladder.cnn_bypassed > 0 && r.ladder.cnn_ok > 0, "{r:?}");
    assert!(r.ladder.cnn_bypassed <= r.ladder.tree_ok);
    assert_eq!(r.cache.audited, 0);
    assert_eq!(r.cache.hits + r.cache.misses + r.cache.stale, r.submitted);
    r
}

#[test]
fn accounting_stays_exact_on_a_mixed_stream() {
    // With injected faults every tree-first answer is still given at
    // admission; the faulted requests' tree answers come from workers.
    let r = mixed_stream(ServeHooks {
        cnn_fault: Some(Arc::new(|seq| match seq % 13 {
            5 => CnnFault::Panic,
            9 => CnnFault::NonFinite,
            _ => CnnFault::None,
        })),
    });
    assert_eq!(r.tree_first_served, r.ladder.cnn_bypassed, "{r:?}");
    // Without a hook the workers answer only from the CNN.
    let r = mixed_stream(ServeHooks::default());
    assert_eq!(r.tree_first_served, r.ladder.cnn_bypassed, "{r:?}");
    assert_eq!(r.served_tree, r.tree_first_served, "{r:?}");
    assert_eq!(r.single_served + r.batched_served, r.served_cnn, "{r:?}");
    assert_eq!(r.served_default + r.ladder.tree_panic, 0, "{r:?}");
}

#[test]
fn decisions_are_repeatable_bit_for_bit() {
    let (first, rest) = split();
    let mix: Vec<&CooMatrix<f32>> = first
        .iter()
        .take(8)
        .chain(rest.iter().take(4))
        .copied()
        .chain(larger().iter().take(2))
        .collect();
    let bits = |svc: &SelectorService| -> Vec<_> {
        let members: Vec<_> = mix.iter().map(|m| (*m, SelectGuard::default())).collect();
        svc.select_batch(&members)
            .into_iter()
            .map(|g| {
                let s = g.selection.unwrap();
                (g.cnn, s.source, s.format, s.confidence.map(f32::to_bits))
            })
            .collect()
    };
    let (a, b) = (service(), service());
    let once = bits(&a);
    assert_eq!(once, bits(&a), "same service, same batch");
    assert_eq!(once, bits(&b), "independently built service");
}

/// Records every served answer with the generation the server reports
/// for it.
#[derive(Default)]
struct Recorder(Mutex<Vec<(Selection, u64)>>);

impl ServeTap<f32> for Recorder {
    fn observe(&self, _m: &Arc<CooMatrix<f32>>, sel: &Selection, generation: u64) {
        self.0.lock().unwrap().push((*sel, generation));
    }
}

/// Selection with its confidence as bits, for bit-for-bit comparison.
fn bits(s: Selection) -> (SelectionSource, dnnspmv_sparse::SparseFormat, Option<u32>) {
    (s.source, s.format, s.confidence.map(f32::to_bits))
}

/// `SelectorService::select`, a plain server and a server with a fault
/// hook give bit-identical answers, confidence bits included, on pure
/// leaves, impure leaves and matrices above the gate; the servers answer
/// every pure leaf at admission (the hooked one without calling its
/// hook), and the batch ladder answers no healthy member from the tree.
#[test]
fn select_and_the_servers_agree_bit_for_bit_and_workers_start_at_the_cnn() {
    let (first, rest) = split();
    let queued: Vec<&CooMatrix<f32>> = rest.iter().copied().chain(larger()).collect();
    let svc = service();
    let plain: SelectorServer<f32> = SelectorServer::new(service(), ServerConfig::default());
    let tap = Arc::new(Recorder::default());
    assert!(plain.set_serve_tap(tap.clone()));
    let calls = Arc::new(AtomicU64::new(0));
    let c_h = Arc::clone(&calls);
    let hooked: SelectorServer<f32> = SelectorServer::with_parts(
        service(),
        ServerConfig::default(),
        ServeHooks {
            cnn_fault: Some(Arc::new(move |_seq| {
                c_h.fetch_add(1, Ordering::SeqCst);
                CnnFault::None
            })),
        },
        dnnspmv_core::system_clock(),
    );
    for m in &first {
        let sel = svc.select(*m);
        assert_eq!(sel.source, SelectionSource::Tree);
        assert_eq!(bits(plain.select(m).unwrap()), bits(sel));
        assert_eq!(bits(hooked.select(m).unwrap()), bits(sel));
    }
    assert_eq!(calls.load(Ordering::SeqCst), 0, "no pure leaf met the hook");
    for (r, name) in [(plain.report(), "plain"), (hooked.report(), "hooked")] {
        assert_eq!(r.tree_first_served, first.len() as u64, "{name}: {r:?}");
        assert_eq!(r.single_served + r.batched_served, 0, "{name}");
    }
    // Each was shown to the tap once, under the generation it read.
    let seen = tap.0.lock().unwrap().clone();
    assert_eq!(seen.len(), first.len());
    assert!(seen
        .iter()
        .all(|&(s, g)| s.source == SelectionSource::Tree && g == 0));

    // Impure leaves and matrices above the gate are queued and answered
    // by a worker's CNN pass; no tree answer is added on the way.
    for m in &queued {
        let sel = svc.select(*m);
        assert_eq!(sel.source, SelectionSource::Cnn);
        assert_eq!(bits(plain.select(m).unwrap()), bits(sel));
        assert_eq!(bits(hooked.select(m).unwrap()), bits(sel));
    }
    assert_eq!(calls.load(Ordering::SeqCst), queued.len() as u64);
    for r in [plain.report(), hooked.report()] {
        assert_eq!(r.single_served + r.batched_served, queued.len() as u64);
        assert_eq!(r.ladder, svc.report(), "the same ladder counters");
        assert_eq!(
            (r.ladder.cnn_ok, r.ladder.tree_ok, r.ladder.tree_panic),
            (queued.len() as u64, first.len() as u64, 0)
        );
        assert_eq!(r.accounted(), r.submitted);
        assert!(r.path_accounted(), "{r:?}");
    }

    // The batch ladder a worker runs never answers a healthy member
    // from the tree, pure leaf or not.
    let all: Vec<_> = first
        .iter()
        .chain(&queued)
        .map(|m| (*m, SelectGuard::default()))
        .collect();
    let ladder = service();
    for g in ladder.select_batch(&all) {
        assert_eq!(g.cnn, CnnRungOutcome::Answered);
        assert_eq!(g.selection.unwrap().source, SelectionSource::Cnn);
    }
    let r = ladder.report();
    assert_eq!(r.cnn_ok, all.len() as u64);
    assert_eq!((r.cnn_bypassed, r.tree_ok), (0, 0));
}

/// Parks the worker inside the first CNN answer it shows the tap, until
/// released: the lever that holds the queue full. Tree answers pass
/// straight through.
struct ParkOnCnn {
    parked: AtomicBool,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl ServeTap<f32> for ParkOnCnn {
    fn observe(&self, _m: &Arc<CooMatrix<f32>>, sel: &Selection, _generation: u64) {
        if sel.source == SelectionSource::Cnn && !self.parked.swap(true, Ordering::SeqCst) {
            self.entered.lock().unwrap().send(()).unwrap();
            self.release.lock().unwrap().recv().unwrap();
        }
    }
}

#[test]
fn admission_answers_are_never_shed_and_never_cached() {
    let (first, rest) = split();
    assert!(rest.len() >= 4, "only {} impure leaves", rest.len());
    let server: SelectorServer<f32> = SelectorServer::new(
        service(),
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            max_batch: 1,
            cache: CacheConfig::enabled(64),
            ..ServerConfig::default()
        },
    );
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    assert!(server.set_serve_tap(Arc::new(ParkOnCnn {
        parked: AtomicBool::new(false),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    })));
    let submit = |m: &CooMatrix<f32>| server.submit(Arc::new(m.clone()), None);
    // One CNN request parks the only worker; two more fill the queue,
    // and the next is shed.
    let parked = submit(rest[0]).unwrap();
    entered.recv().unwrap();
    let queued: Vec<PendingSelection> = rest[1..3].iter().map(|m| submit(m).unwrap()).collect();
    assert!(matches!(
        submit(rest[3]),
        Err(ServeError::Overloaded { capacity: 2 })
    ));
    // The queue is still full, and every tree-first matrix is answered
    // anyway, twice over, before the worker moves.
    for m in first.iter().chain(&first) {
        let sel = submit(m).unwrap().wait().unwrap();
        assert_eq!(sel.source, SelectionSource::Tree);
    }
    let r = server.report();
    assert_eq!(r.shed, 1, "{r:?}");
    assert_eq!(r.tree_first_served, 2 * first.len() as u64);
    assert_eq!(
        r.cache.misses,
        4 + 2 * first.len() as u64,
        "no tree-first hit"
    );
    // The parked answer was stored before the tap saw it; nothing else.
    assert_eq!(r.cache.inserted, 1, "{r:?}");
    release.send(()).unwrap();
    assert_eq!(parked.wait().unwrap().source, SelectionSource::Cnn);
    for p in queued {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!((r.cache.inserted, r.cache.entries), (3, 3), "{r:?}");
    assert_eq!(r.served_cache, 0);
    assert_eq!(r.accounted(), r.submitted, "{r:?}");
    assert!(r.path_accounted(), "{r:?}");
}
