//! Deterministic fault-injection tests for the admission-controlled
//! selector server: burst load, deadlines, circuit breaker, hot
//! reload, and exact counter accounting under parallel hammering.
//!
//! All timing-sensitive behaviour runs against an injected
//! `ManualClock` (nanoseconds advanced explicitly by the test or by
//! fault hooks), so nothing here depends on scheduler luck.

use dnnspmv::core::{
    BreakerState, CacheConfig, CnnFault, DtSelector, FormatSelector, Selection, SelectionSource,
    SelectorConfig, SelectorServer, SelectorService, ServeError, ServeHooks, ServeTap,
    ServerConfig, BREAKER_OPEN_BACKOFF, CACHE_AUDIT_PERIOD,
};
use dnnspmv::gen::{Dataset, DatasetSpec};
use dnnspmv::nn::TrainConfig;
use dnnspmv::obs::ManualClock;
use dnnspmv::platform::{label_dataset, PlatformModel};
use dnnspmv::repr::ReprConfig;
use dnnspmv::sparse::CooMatrix;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, OnceLock};
use std::time::Duration;

/// Trained fixture, built once per test binary: a small CNN selector,
/// the matching decision tree, and the dataset they were trained on.
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
            cnn: dnnspmv::nn::CnnConfig {
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

/// A full CNN+tree ladder: every finite CNN answer counts as a CNN
/// answer.
fn full_service() -> SelectorService {
    let (cnn, dt, _) = fixture();
    SelectorService::new(Some(cnn.clone()), Some(dt.clone())).unwrap()
}

/// Matrices [`full_service`] sends down the CNN path, by the predicate
/// a server asks at admission (`SelectorService::tree_first`): the
/// fixture's impure-leaf matrices, then larger fresh ones above the
/// gate. A healthy small fixture matrix is answered tree-first, so the
/// tests whose subject is the CNN rung (its answers, deadlines, breaker
/// probes, cached answers, shared batches) serve these.
fn cnn_bound() -> &'static [CooMatrix<f32>] {
    static BOUND: OnceLock<Vec<CooMatrix<f32>>> = OnceLock::new();
    BOUND.get_or_init(|| {
        let (_, _, data) = fixture();
        let larger = Dataset::generate(&DatasetSpec {
            n_base: 12,
            n_augmented: 0,
            dim_min: 384,
            dim_max: 768,
            seed: 43,
            ..DatasetSpec::default()
        });
        let svc = full_service();
        let bound: Vec<_> = data
            .matrices
            .iter()
            .chain(&larger.matrices)
            .filter(|m| svc.tree_first(*m).is_none())
            .cloned()
            .collect();
        assert!(bound.len() >= 14, "only {} CNN-bound matrices", bound.len());
        bound
    })
}

/// The breaker's first open period in fake-clock nanoseconds: advancing
/// the clock by this much lets the next request probe.
const OPEN_NS: u64 = BREAKER_OPEN_BACKOFF.as_nanos() as u64;

/// Acceptance (a): a burst beyond queue capacity is shed with a typed
/// `Overloaded` error while every admitted request still completes, and
/// the terminal counters account for every single submission.
#[test]
fn burst_load_sheds_overloaded_and_admitted_requests_complete() {
    let clock = ManualClock::new();
    // One worker, parked inside the CNN-fault hook until released, so
    // the queue depth is fully under test control. The hook signals
    // `entered` so the test knows when the worker has dequeued a job.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            entered_tx.send(()).ok();
            gate_rx.lock().unwrap().recv().ok();
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 4,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let m = Arc::new(cnn_bound()[0].clone());

    // First request occupies the worker (it blocks in the hook); once
    // `entered` fires the queue is empty and the worker is busy, so
    // the next four fill the queue exactly.
    let mut pending = Vec::new();
    pending.push(server.submit(Arc::clone(&m), None).unwrap());
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker never dequeued the first job");
    for _ in 0..4 {
        pending.push(server.submit(Arc::clone(&m), None).unwrap());
    }
    // The burst: every further submission must shed, immediately.
    let mut shed = 0u64;
    for _ in 0..7 {
        match server.submit(Arc::clone(&m), None) {
            Ok(_) => panic!("full queue must shed"),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 4);
                shed += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(shed, 7);

    // Release the worker: every admitted request completes.
    for _ in 0..pending.len() {
        gate_tx.send(()).ok();
    }
    let admitted = pending.len() as u64;
    for p in pending {
        let sel = p.wait().expect("admitted requests must be answered");
        assert_eq!(sel.source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.submitted, 12);
    assert_eq!(r.shed, shed);
    assert_eq!(r.served, admitted);
    assert_eq!(r.accounted(), r.submitted, "no request lost: {r:?}");
}

/// Deadlines expire in two distinct places, and both are observable:
/// while queued (checked at dequeue) and mid-flight (the cooperative
/// cancellation checkpoint inside representation extraction fires).
#[test]
fn deadlines_expire_in_queue_and_in_flight() {
    let clock = ManualClock::new();
    let hook_clock = Arc::clone(&clock);
    let hang = Arc::new(AtomicBool::new(false));
    let hang_h = Arc::clone(&hang);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if hang_h.load(Ordering::SeqCst) {
                // A CNN latency spike: time jumps past any deadline
                // before the forward pass starts.
                hook_clock.advance(1_000_000);
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let m = Arc::new(cnn_bound()[1].clone());

    // In-flight expiry: the hook simulates the hang.
    hang.store(true, Ordering::SeqCst);
    let err = server
        .submit(Arc::clone(&m), Some(Duration::from_nanos(1_000)))
        .unwrap()
        .wait()
        .expect_err("deadline must fire mid-flight");
    assert_eq!(err, ServeError::DeadlineExceeded);
    hang.store(false, Ordering::SeqCst);

    // In-queue expiry: the deadline is already in the past relative to
    // the (frozen) fake clock by the time the worker dequeues it.
    clock.advance(10_000_000);
    let pend = server.submit(Arc::clone(&m), Some(Duration::ZERO)).unwrap();
    assert_eq!(pend.wait(), Err(ServeError::DeadlineExceeded));

    // A request with a generous deadline still completes.
    let sel = server
        .submit(Arc::clone(&m), Some(Duration::from_secs(3600)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(sel.source, SelectionSource::Cnn);

    let r = server.report();
    assert_eq!(r.deadline_in_flight, 1);
    assert_eq!(r.deadline_in_queue, 1);
    assert_eq!(r.served_cnn, 1);
    assert_eq!(r.accounted(), r.submitted);
}

/// Acceptance (b) + (c), hang flavour: a CNN that stalls past the
/// deadline trips the breaker within `BREAKER_FAILURE_THRESHOLD`
/// requests, the tree keeps answering while the breaker is open, and
/// the half-open probe restores the CNN once the fault clears.
#[test]
fn hung_cnn_trips_breaker_tree_answers_probe_restores() {
    let clock = ManualClock::new();
    let hook_clock = Arc::clone(&clock);
    let hang = Arc::new(AtomicBool::new(true));
    let hang_h = Arc::clone(&hang);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if hang_h.load(Ordering::SeqCst) {
                hook_clock.advance(1_000_000);
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let m = Arc::new(cnn_bound()[2].clone());
    let deadline = Some(Duration::from_nanos(1_000));

    // Three hung requests (submitted one at a time so each is admitted
    // before the previous hook advanced the clock) trip the breaker.
    for i in 0..3 {
        let err = server.submit(Arc::clone(&m), deadline).unwrap().wait();
        assert_eq!(err, Err(ServeError::DeadlineExceeded), "request {i}");
    }
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Open, "{r:?}");
    assert_eq!(r.breaker.to_open, 1);

    // While open: traffic is demoted, the tree answers, and the hook
    // (i.e. the faulty CNN) is never consulted.
    for _ in 0..4 {
        let sel = server
            .submit(Arc::clone(&m), deadline)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(sel.source, SelectionSource::Tree);
    }
    let r = server.report();
    assert_eq!(r.breaker_demoted, 4);
    assert_eq!(r.served_tree, 4);

    // Fault clears, backoff elapses: the next request is the half-open
    // probe, the CNN answers, and the breaker closes.
    hang.store(false, Ordering::SeqCst);
    clock.advance(OPEN_NS);
    let sel = server
        .submit(Arc::clone(&m), deadline)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(sel.source, SelectionSource::Cnn);
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Closed);
    assert_eq!(r.probes_ok, 1);
    assert_eq!((r.breaker.to_half_open, r.breaker.to_closed), (1, 1));

    // Closed again: ordinary traffic flows to the CNN.
    let sel = server
        .submit(Arc::clone(&m), deadline)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(sel.source, SelectionSource::Cnn);
    assert_eq!(server.report().accounted(), server.report().submitted);
}

/// Acceptance (b), panic flavour: a panicking CNN never loses the
/// request — the tree rung answers it — and a failed probe reopens the
/// breaker with a doubled backoff.
#[test]
fn panicking_cnn_is_contained_and_failed_probe_doubles_backoff() {
    let clock = ManualClock::new();
    let panicking = Arc::new(AtomicBool::new(true));
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
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let m = Arc::new(cnn_bound()[3].clone());

    // Every request during the panic storm is still answered (by the
    // tree), and the third one trips the breaker.
    for _ in 0..3 {
        let sel = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
        assert_eq!(sel.source, SelectionSource::Tree);
    }
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Open);
    assert_eq!(r.ladder.cnn_panic, 3, "{r:?}");

    // Backoff elapses but the fault persists: the probe fails, the
    // breaker reopens, and the backoff doubles.
    clock.advance(OPEN_NS);
    let sel = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(sel.source, SelectionSource::Tree);
    let r = server.report();
    assert_eq!(r.probes_failed, 1);
    assert_eq!(r.breaker.state, BreakerState::Open);
    assert_eq!(r.breaker.current_backoff_ns, 2 * OPEN_NS);

    // Fault clears; after the doubled backoff the probe succeeds.
    panicking.store(false, Ordering::SeqCst);
    clock.advance(2 * OPEN_NS);
    let sel = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(sel.source, SelectionSource::Cnn);
    assert_eq!(server.report().breaker.state, BreakerState::Closed);
    assert_eq!(server.report().accounted(), server.report().submitted);
}

/// Acceptance (d): a corrupt artefact is rejected with a typed error
/// while the old model keeps serving; a valid artefact swaps in
/// atomically and bumps the generation, and ladder counters survive
/// the swap (retired generations still count).
#[test]
fn hot_reload_rejects_corrupt_artefact_and_swaps_valid_one() {
    let (cnn, _, _) = fixture();
    let clock = ManualClock::new();
    let server: SelectorServer<f32> = SelectorServer::with_parts(
        full_service(),
        ServerConfig {
            workers: 1,
            reload_attempts: 1,
            ..ServerConfig::default()
        },
        ServeHooks::default(),
        clock.as_clock_fn(),
    );
    let m = Arc::new(cnn_bound()[4].clone());
    let sel_before = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(sel_before.source, SelectionSource::Cnn);

    let dir = std::env::temp_dir().join(format!("dnnspmv-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    let path_s = path.to_string_lossy().into_owned();
    cnn.save(&path_s).unwrap();

    // Corrupt artefact (payload bit-flip trips the envelope checksum):
    // typed rejection, generation unchanged, old model still serving.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replacen("formats", "f0rmats", 1)).unwrap();
    let err = server.reload_model(&path).expect_err("corrupt artefact");
    assert!(matches!(err, ServeError::Reload(_)), "{err:?}");
    assert_eq!(server.model_generation(), 0);
    let sel_mid = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(sel_mid.format, sel_before.format);

    // Valid artefact: swap succeeds, generation bumps, answers agree
    // with the artefact we wrote, and pre-swap ladder counts survive.
    std::fs::write(&path, &text).unwrap();
    let generation = server.reload_model(&path).unwrap();
    assert_eq!(generation, 1);
    let sel_after = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(sel_after.format, cnn.predict(&cnn_bound()[4]));
    let r = server.report();
    assert_eq!((r.reloads_ok, r.reloads_rejected), (1, 1));
    assert_eq!(r.model_generation, 1);
    assert_eq!(r.served_cnn, 3);
    assert_eq!(
        r.ladder.answered(),
        3,
        "retired-generation counters must survive the swap: {r:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Submit-and-wait for requests `0..total`, dealt round-robin to 8
/// concurrent clients, one scoped OS thread each. The barrier holds
/// every client until all 8 exist, so submissions really do overlap.
fn hammer(
    server: &SelectorServer<f32>,
    data: &Dataset,
    total: usize,
) -> Vec<Result<SelectionSource, ServeError>> {
    const CLIENTS: usize = 8;
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    (t..total)
                        .step_by(CLIENTS)
                        .map(|i| {
                            let m = Arc::new(data.matrices[i % data.matrices.len()].clone());
                            server
                                .submit(m, None)
                                .and_then(|p| p.wait())
                                .map(|s| s.source)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("stress client panicked"))
            .collect()
    })
}

/// Satellite 3: 8 client threads hammer one server concurrently; the
/// terminal counters must sum exactly to the submissions — no request
/// lost, none double-counted — and the server-side rung counters must
/// agree with the ladder's own counters.
#[test]
fn rayon_stress_counters_sum_exactly() {
    let (_, _, data) = fixture();
    let server: SelectorServer<f32> = SelectorServer::new(
        full_service(),
        ServerConfig {
            workers: 3,
            // Fewer slots than clients, so shedding is reachable.
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    );
    let total = 256usize;
    let outcomes = hammer(&server, data, total);
    let served = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServeError::Overloaded { .. })))
        .count() as u64;
    assert_eq!(served + shed, total as u64, "unexpected outcome kinds");

    let r = server.report();
    assert_eq!(r.submitted, total as u64);
    assert_eq!(r.shed, shed);
    assert_eq!(r.served, served);
    assert_eq!(r.accounted(), r.submitted, "{r:?}");
    // The ladder saw exactly the admitted requests.
    assert_eq!(r.ladder.answered(), served);
    assert_eq!(r.served_cnn, r.ladder.cnn_ok);
    assert_eq!(r.served_tree, r.ladder.tree_ok);

    // The registry view agrees exactly with the report view even after
    // concurrent hammering: both are reads of the same atomic cells.
    let snap = server.metrics_snapshot();
    let c = |name: &str, labels: &[(&str, &str)]| snap.counter(name, labels).unwrap_or(0);
    assert_eq!(c("serve_submitted_total", &[]), r.submitted);
    assert_eq!(c("serve_outcome_total", &[("outcome", "shed")]), r.shed);
    let snap_served = c(
        "serve_outcome_total",
        &[("outcome", "served"), ("rung", "cnn")],
    ) + c(
        "serve_outcome_total",
        &[("outcome", "served"), ("rung", "tree")],
    ) + c(
        "serve_outcome_total",
        &[("outcome", "served"), ("rung", "default")],
    );
    assert_eq!(snap_served, r.served);
    // Load has fully drained: the live gauges are back to zero.
    assert_eq!(snap.gauge("serve_queue_depth", &[]), Some(0));
    assert_eq!(snap.gauge("serve_in_flight", &[]), Some(0));
}

/// Satellite 3: the registry snapshot and the typed `ServerReport` are
/// two views over the same cells — every counter matches field-for-
/// field, and the exact-accounting invariant holds in both views, after
/// a run that exercises every rung outcome the ladder has: healthy CNN
/// answers, a panic storm, breaker demotion, a successful probe, an
/// in-queue deadline expiry, and a hot reload.
#[test]
fn metrics_snapshot_reproduces_server_report_exactly() {
    let (cnn, _, _) = fixture();
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
    let server: SelectorServer<f32> = SelectorServer::with_parts(
        full_service(),
        ServerConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
        hooks,
        clock.as_clock_fn(),
    );
    let m = Arc::new(cnn_bound()[5].clone());
    let serve_one = || server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();

    // Healthy CNN answers.
    for _ in 0..3 {
        assert_eq!(serve_one().source, SelectionSource::Cnn);
    }
    // Panic storm: the tree answers, the third failure trips the
    // breaker.
    panicking.store(true, Ordering::SeqCst);
    for _ in 0..3 {
        assert_eq!(serve_one().source, SelectionSource::Tree);
    }
    // Breaker open: demoted traffic (CNN rung skipped on request).
    for _ in 0..2 {
        assert_eq!(serve_one().source, SelectionSource::Tree);
    }
    // Fault clears, backoff elapses: the probe restores the CNN.
    panicking.store(false, Ordering::SeqCst);
    clock.advance(OPEN_NS);
    assert_eq!(serve_one().source, SelectionSource::Cnn);
    // In-queue deadline expiry.
    clock.advance(10_000_000);
    assert_eq!(
        server
            .submit(Arc::clone(&m), Some(Duration::ZERO))
            .unwrap()
            .wait(),
        Err(ServeError::DeadlineExceeded)
    );
    // Hot reload, then one more healthy answer from the new generation.
    let dir = std::env::temp_dir().join(format!("dnnspmv-serve-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    cnn.save(path.to_string_lossy().as_ref()).unwrap();
    assert_eq!(server.reload_model(&path).unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(serve_one().source, SelectionSource::Cnn);

    let r = server.report();
    let snap = server.metrics_snapshot();
    let c = |name: &str, labels: &[(&str, &str)]| snap.counter(name, labels).unwrap_or(0);
    let outcome = |o: &str| c("serve_outcome_total", &[("outcome", o)]);
    let served = |rung: &str| {
        c(
            "serve_outcome_total",
            &[("outcome", "served"), ("rung", rung)],
        )
    };
    let rung = |r: &str, o: &str| c("selector_rung_total", &[("rung", r), ("outcome", o)]);

    // Field-for-field: the snapshot reproduces the report.
    assert_eq!(c("serve_submitted_total", &[]), r.submitted);
    assert_eq!(outcome("shed"), r.shed);
    assert_eq!(outcome("rejected_shutdown"), r.rejected_shutdown);
    assert_eq!(outcome("deadline_in_queue"), r.deadline_in_queue);
    assert_eq!(outcome("deadline_in_flight"), r.deadline_in_flight);
    assert_eq!(served("cnn"), r.served_cnn);
    assert_eq!(served("tree"), r.served_tree);
    assert_eq!(served("default"), r.served_default);
    assert_eq!(served("cnn") + served("tree") + served("default"), r.served);
    assert_eq!(c("serve_breaker_demoted_total", &[]), r.breaker_demoted);
    assert_eq!(c("serve_probe_total", &[("result", "ok")]), r.probes_ok);
    assert_eq!(
        c("serve_probe_total", &[("result", "failed")]),
        r.probes_failed
    );
    assert_eq!(c("serve_reload_total", &[("result", "ok")]), r.reloads_ok);
    assert_eq!(
        c("serve_reload_total", &[("result", "rejected")]),
        r.reloads_rejected
    );
    assert_eq!(
        snap.gauge("serve_model_generation", &[]),
        Some(r.model_generation as i64)
    );
    // The ladder view matches counter-for-counter too, across the
    // reload (both generations bound the same registry cells).
    assert_eq!(rung("cnn", "ok"), r.ladder.cnn_ok);
    assert_eq!(rung("cnn", "panic"), r.ladder.cnn_panic);
    assert_eq!(rung("cnn", "skipped"), r.ladder.cnn_skipped);
    assert_eq!(rung("cnn", "cancelled"), r.ladder.cnn_cancelled);
    assert_eq!(rung("cnn", "bypassed"), r.ladder.cnn_bypassed);
    assert_eq!(rung("tree", "ok"), r.ladder.tree_ok);
    assert_eq!(rung("tree", "panic"), r.ladder.tree_panic);
    assert_eq!(rung("default", "ok"), r.ladder.default_used);

    // The exact-accounting invariant holds in BOTH views.
    assert_eq!(r.accounted(), r.submitted, "{r:?}");
    let snap_accounted = outcome("shed")
        + outcome("rejected_shutdown")
        + served("cnn")
        + served("tree")
        + served("default")
        + outcome("deadline_in_queue")
        + outcome("deadline_in_flight");
    assert_eq!(snap_accounted, c("serve_submitted_total", &[]));

    // Spot-check the run actually exercised every path it claims to.
    assert_eq!(r.submitted, 11);
    assert_eq!(r.served_cnn, 5);
    assert_eq!(r.served_tree, 5);
    assert_eq!(r.ladder.cnn_panic, 3);
    assert_eq!(r.ladder.cnn_skipped, 2);
    assert_eq!(r.deadline_in_queue, 1);
    assert_eq!((r.probes_ok, r.reloads_ok), (1, 1));
    // The queue-wait histogram saw every dequeued request (the timed
    // path defaults on), and the live gauges have drained to zero.
    let qw = snap.histogram("serve_queue_wait_ns", &[]).expect("timed");
    assert_eq!(qw.count, r.submitted - r.shed - r.rejected_shutdown);
    assert_eq!(snap.gauge("serve_queue_depth", &[]), Some(0));
    assert_eq!(snap.gauge("serve_in_flight", &[]), Some(0));
}

/// Tentpole stage A: a structurally repeated matrix is answered from
/// the decision cache at admission — same selection as the worker-path
/// answer, no queueing — and a hot reload invalidates every cached
/// entry at once (generation keying), after which the first request
/// repopulates the cache under the new generation.
#[test]
fn cache_hits_repeat_worker_answers_and_reload_invalidates() {
    let (cnn, _, _) = fixture();
    let clock = ManualClock::new();
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        cache: CacheConfig::enabled(64),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(
        full_service(),
        cfg,
        ServeHooks::default(),
        clock.as_clock_fn(),
    );
    let m = Arc::new(cnn_bound()[6].clone());

    // Miss → worker answers via the CNN and populates the cache.
    let first = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(first.source, SelectionSource::Cnn);
    // Hit → answered at admission: identical selection, no new ladder
    // activity.
    let ladder_before = server.report().ladder.answered();
    let second = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(second, first, "hit must reproduce the cached selection");
    let r = server.report();
    assert_eq!(r.ladder.answered(), ladder_before, "hit ran no rung");
    assert_eq!(r.served_cache, 1);
    assert_eq!(r.cache.misses, 1);
    assert_eq!(r.cache.inserted, 1);
    assert_eq!(r.cache.entries, 1);

    // Hot reload: the generation bump strands the cached entry; the
    // next request is stale (dropped on sight), answered by the new
    // generation's worker path, and re-cached.
    let dir = std::env::temp_dir().join(format!("dnnspmv-serve-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    cnn.save(path.to_string_lossy().as_ref()).unwrap();
    assert_eq!(server.reload_model(&path).unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
    let third = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(third.source, SelectionSource::Cnn);
    let fourth = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(fourth, third);
    let r = server.report();
    assert_eq!(r.cache.stale, 1, "reload must strand the old entry: {r:?}");
    assert_eq!(r.served_cache, 2);
    assert_eq!(r.cache.entries, 1, "stale entry dropped, fresh one in");
    // Both invariants hold: terminal buckets and hot-path routes.
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
    assert_eq!(
        r.served,
        r.served_cache + r.single_served + r.batched_served
    );
}

/// Each entry's every CACHE_AUDIT_PERIOD-th hit is re-served through
/// the miss path as an audit: repeat submissions of two matrices give
/// exactly the audits the period predicts, every audit agrees with the
/// cached answer and refreshes it, and every answer — hit or audit —
/// equals the uncached one.
#[test]
fn periodic_hit_audit_counts_exactly_and_answers_like_a_miss() {
    let clock = ManualClock::new();
    let cfg = ServerConfig {
        workers: 1,
        cache: CacheConfig::enabled(64),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(
        full_service(),
        cfg,
        ServeHooks::default(),
        clock.as_clock_fn(),
    );
    let uncached = full_service();
    let repeats = 3 * CACHE_AUDIT_PERIOD + 5;
    for i in [3, 7] {
        let m = Arc::new(cnn_bound()[i].clone());
        let fresh = uncached.select(m.as_ref());
        for _ in 0..repeats {
            let got = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
            assert_eq!(got, fresh, "matrix {i}");
        }
    }
    let r = server.report();
    // One miss per matrix, then repeats − 1 hits on its entry.
    let found = 2 * (repeats - 1);
    assert_eq!(r.cache.misses, 2);
    assert_eq!(
        r.cache.audited,
        2 * ((repeats - 1) / CACHE_AUDIT_PERIOD),
        "{r:?}"
    );
    assert_eq!(r.cache.audited, 6);
    assert_eq!(r.cache.hits, found - r.cache.audited);
    assert_eq!(r.cache.audit_mismatches, 0);
    let matched = server
        .metrics_snapshot()
        .counter("serve_cache_audit_total", &[("result", "match")]);
    assert_eq!(matched, Some(r.cache.audited));
    assert_eq!(r.cache.updated, r.cache.audited, "each audit refreshed");
    // Audits ran the ladder on a worker, like the misses.
    assert_eq!(r.single_served, r.cache.misses + r.cache.audited);
    assert_eq!(r.ladder.answered(), r.served - r.served_cache);
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
}

/// Submits `m` `hits` times, each answered from the cache at admission.
fn hit_times(server: &SelectorServer<f32>, m: &Arc<dnnspmv::sparse::CooMatrix<f32>>, hits: u64) {
    let before = server.report().served_cache;
    for _ in 0..hits {
        server.submit(Arc::clone(m), None).unwrap().wait().unwrap();
    }
    assert_eq!(server.report().served_cache, before + hits, "all hits");
}

/// An audit the CNN cannot answer ends as the hit it was: with the
/// breaker open it is demoted to the tree, and as a half-open probe the
/// CNN panics, yet both times the client gets the cached CNN answer —
/// never a degraded one — and nothing is judged or refreshed.
#[test]
fn audit_on_open_breaker_or_cnn_fault_returns_the_cached_answer() {
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
        cache: CacheConfig::enabled(64),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let m = Arc::new(cnn_bound()[0].clone());
    let cached = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(cached.source, SelectionSource::Cnn);
    hit_times(&server, &m, CACHE_AUDIT_PERIOD - 1);

    // A panic storm on three misses opens the breaker.
    panicking.store(true, Ordering::SeqCst);
    for i in 1..4 {
        let sel = server.select(&cnn_bound()[i]).unwrap();
        assert_eq!(sel.source, SelectionSource::Tree);
    }
    assert_eq!(server.report().breaker.state, BreakerState::Open);

    // The audit is demoted past the CNN; the cached answer serves.
    assert_eq!(server.select(&m).unwrap(), cached);
    let r = server.report();
    assert_eq!((r.cache.audited, r.breaker_demoted), (1, 1), "{r:?}");

    // After the backoff the next audit is the half-open probe, and the
    // CNN still panics: the probe fails, the cached answer serves.
    hit_times(&server, &m, CACHE_AUDIT_PERIOD - 1);
    clock.advance(OPEN_NS);
    assert_eq!(server.select(&m).unwrap(), cached);
    let r = server.report();
    assert_eq!(r.probes_failed, 1, "{r:?}");
    assert_eq!(r.breaker.state, BreakerState::Open);
    assert_eq!((r.cache.audited, r.cache.audit_mismatches), (2, 0));
    let judged = server
        .metrics_snapshot()
        .counter("serve_cache_audit_total", &[("result", "match")])
        .unwrap_or(0);
    assert_eq!(judged, 0, "no fresh CNN answer, nothing judged");
    assert_eq!(r.cache.updated, 0, "a degraded answer is never stored");
    // The client saw CNN answers; the ladder ran the tree for both.
    assert_eq!((r.served_cnn, r.served_tree), (3, 3), "{r:?}");
    assert_eq!(r.ladder.tree_ok, 5, "{r:?}");
    assert_eq!(r.cache.hits, 2 * (CACHE_AUDIT_PERIOD - 1));
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
}

/// An audit that cannot reach a worker in time still returns the cached
/// answer: on a full queue it is served as a plain hit at admission
/// (not shed, not counted as an audit), and when its deadline passes
/// while queued the worker replies with the cached answer instead of
/// `DeadlineExceeded`.
#[test]
fn audit_on_full_queue_or_past_deadline_returns_the_cached_answer() {
    let clock = ManualClock::new();
    // The worker parks inside the CNN-fault hook while `blocking` is set.
    let blocking = Arc::new(AtomicBool::new(false));
    let b_h = Arc::clone(&blocking);
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if b_h.load(Ordering::SeqCst) {
                entered_tx.send(()).ok();
                // Bounded, so a failing assertion cannot leave the worker
                // parked while the server's drop joins it.
                let gate = gate_rx.lock().unwrap();
                gate.recv_timeout(Duration::from_secs(30)).ok();
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        max_batch: 1,
        cache: CacheConfig::enabled(64),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let m = Arc::new(cnn_bound()[0].clone());
    let cached = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    // Parks the worker on a miss of matrix `i`, not cached before.
    let park_worker = |i: usize| {
        blocking.store(true, Ordering::SeqCst);
        let p = server
            .submit(Arc::new(cnn_bound()[i].clone()), None)
            .unwrap();
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("worker never dequeued");
        p
    };
    let release_worker = || {
        blocking.store(false, Ordering::SeqCst);
        gate_tx.send(()).unwrap();
    };

    // Queue full: the audit is answered at admission.
    hit_times(&server, &m, CACHE_AUDIT_PERIOD - 1);
    let mut pending = vec![park_worker(1)];
    for i in 2..4 {
        pending.push(
            server
                .submit(Arc::new(cnn_bound()[i].clone()), None)
                .unwrap(),
        );
    }
    let p = server
        .submit(Arc::clone(&m), None)
        .expect("an audit is never shed");
    let r = server.report();
    assert_eq!((r.shed, r.cache.audited), (0, 0), "{r:?}");
    assert_eq!(r.cache.hits, CACHE_AUDIT_PERIOD, "served as a hit");
    assert_eq!(p.wait().unwrap(), cached);
    release_worker();
    for p in pending.drain(..) {
        p.wait().unwrap();
    }

    // Past its deadline in the queue: the worker replies with the
    // cached answer.
    hit_times(&server, &m, CACHE_AUDIT_PERIOD - 1);
    let parked = park_worker(4);
    let p = server
        .submit(Arc::clone(&m), Some(Duration::from_nanos(10)))
        .unwrap();
    assert_eq!(server.report().cache.audited, 1, "the audit is queued");
    clock.advance(1_000);
    release_worker();
    parked.wait().unwrap();
    assert_eq!(p.wait().unwrap(), cached);
    let r = server.report();
    assert_eq!(r.deadline_in_queue, 0, "{r:?}");
    assert_eq!((r.cache.audited, r.cache.audit_mismatches), (1, 0));
    assert_eq!(
        r.cache.hits + r.cache.misses + r.cache.audited,
        r.submitted,
        "{r:?}"
    );
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
}

/// Tentpole stage B: a worker takes what is already queued, up to
/// `max_batch`, without waiting for more: four requests queued behind a
/// parked worker depart together as one full batch.
#[test]
fn micro_batch_departs_when_full() {
    let clock = ManualClock::new();
    // Seq 0 parks the worker until released, so the next four queue up.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |seq| {
            if seq == 0 {
                entered_tx.send(()).ok();
                gate_rx.lock().unwrap().recv().ok();
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 4,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    let priming = server
        .submit(Arc::new(cnn_bound()[0].clone()), None)
        .unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker never dequeued the priming job");

    // Four submissions: the batch fills to max_batch and departs
    // without any clock advance.
    let pending: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(Arc::new(cnn_bound()[10 + i].clone()), None)
                .unwrap()
        })
        .collect();
    gate_tx.send(()).ok();
    assert_eq!(priming.wait().unwrap().source, SelectionSource::Cnn);
    for p in pending {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.batched_served, 4);
    assert!(r.path_accounted(), "{r:?}");
    let snap = server.metrics_snapshot();
    let bs = snap.histogram("serve_batch_size", &[]).expect("recorded");
    assert_eq!(bs.count, 2, "two batches departed");
    assert_eq!(bs.max, 4, "the second batch was full");
}

/// Tentpole stage B, failure scoping: one member's deadline expiring
/// while the batch is forming cancels that member alone — its batch
/// mates still get CNN answers from the shared forward pass.
#[test]
fn member_deadline_expiring_mid_batch_cancels_only_that_member() {
    let clock = ManualClock::new();
    let hook_clock = Arc::clone(&clock);
    // Seq 0 parks the worker (priming request); seq 2 simulates a stall
    // by jumping the clock past its own deadline.
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |seq| {
            if seq == 0 {
                entered_tx.send(()).ok();
                gate_rx.lock().unwrap().recv().ok();
            }
            if seq == 2 {
                hook_clock.advance(1_000_000);
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 4,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());

    // Prime: park the worker so the next three submissions queue up and
    // form one batch on release.
    let priming = server
        .submit(Arc::new(cnn_bound()[0].clone()), None)
        .unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker never dequeued the priming job");
    let b = server
        .submit(Arc::new(cnn_bound()[1].clone()), None)
        .unwrap();
    let c = server
        .submit(
            Arc::new(cnn_bound()[2].clone()),
            Some(Duration::from_nanos(1_000)),
        )
        .unwrap();
    let d = server
        .submit(Arc::new(cnn_bound()[3].clone()), None)
        .unwrap();
    gate_tx.send(()).ok();

    assert_eq!(priming.wait().unwrap().source, SelectionSource::Cnn);
    assert_eq!(b.wait().unwrap().source, SelectionSource::Cnn);
    assert_eq!(
        c.wait(),
        Err(ServeError::DeadlineExceeded),
        "the stalled member is cancelled alone"
    );
    assert_eq!(d.wait().unwrap().source, SelectionSource::Cnn);

    let r = server.report();
    assert_eq!(r.deadline_in_flight, 1);
    assert_eq!(r.batched_served, 2, "batch mates were still answered");
    assert_eq!(r.single_served, 1, "the priming request rode alone");
    assert_eq!(r.ladder.cnn_cancelled, 1);
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
}

/// Parks the worker inside the serve tap on the answers with the given
/// ordinals (counted from 0 in the order the tap sees them), each until
/// released. Unlike the fault hook, the tap also sees answers whose CNN
/// rung the breaker skipped, and it runs after the breaker has heard
/// the answer's outcome.
struct ParkAt {
    ordinals: Vec<u64>,
    seen: AtomicU64,
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl ServeTap<f32> for ParkAt {
    fn observe(&self, _m: &Arc<CooMatrix<f32>>, _sel: &Selection, _generation: u64) {
        if self
            .ordinals
            .contains(&self.seen.fetch_add(1, Ordering::SeqCst))
        {
            self.entered.lock().unwrap().send(()).unwrap();
            // Bounded, so a failing assertion cannot leave the worker
            // parked while the server's drop joins it.
            let release = self.release.lock().unwrap();
            release.recv_timeout(Duration::from_secs(30)).ok();
        }
    }
}

/// Gathered batch × non-closed breaker: four requests gathered together
/// after the open backoff elapsed are fed through the worker routine one
/// at a time, so the window takes exactly one probe — the first member —
/// and its success closes the breaker for the three behind it.
#[test]
fn gathered_batch_on_open_breaker_takes_exactly_one_probe() {
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
        queue_capacity: 16,
        max_batch: 4,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock.as_clock_fn());
    // The worker parks on the priming answer (0), so the first four
    // queue behind it, and on the last answer of their batch (4), once
    // the breaker has opened, so the next four queue too.
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    assert!(server.set_serve_tap(Arc::new(ParkAt {
        ordinals: vec![0, 4],
        seen: AtomicU64::new(0),
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    })));
    let parked = || {
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("worker never parked")
    };
    let submit_four = |base: usize| -> Vec<_> {
        (0..4)
            .map(|i| {
                server
                    .submit(Arc::new(cnn_bound()[base + i].clone()), None)
                    .unwrap()
            })
            .collect()
    };
    let priming = server
        .submit(Arc::new(cnn_bound()[8].clone()), None)
        .unwrap();
    parked();

    // A panic storm through one shared pass: every member is still
    // answered (by the tree) and the third failure trips the breaker.
    panicking.store(true, Ordering::SeqCst);
    let storm = submit_four(0);
    release.send(()).unwrap();
    parked();
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Open, "{r:?}");
    assert_eq!(r.batched_served, 4);

    // Fault clears, backoff elapses, four more arrive together.
    panicking.store(false, Ordering::SeqCst);
    clock.advance(OPEN_NS);
    let window = submit_four(10);
    release.send(()).unwrap();
    assert_eq!(priming.wait().unwrap().source, SelectionSource::Cnn);
    for p in storm {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Tree);
    }
    for p in window {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.probes_ok + r.probes_failed, 1, "one probe for the window");
    assert_eq!((r.breaker.to_half_open, r.breaker.to_closed), (1, 1));
    assert_eq!(r.breaker.state, BreakerState::Closed);
    assert_eq!(r.breaker_demoted, 0);
    assert_eq!(
        r.single_served,
        1 + 4,
        "the priming request, then members fed one at a time"
    );
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
    let snap = server.metrics_snapshot();
    let bs = snap.histogram("serve_batch_size", &[]).expect("recorded");
    assert_eq!(
        (bs.count, bs.max),
        (3, 4),
        "the priming request alone, then both batches gathered whole"
    );
}

/// Tentpole stage B, low load: sequential traffic forms batches of one,
/// which take the per-request path — batching must cost nothing when
/// there is nothing to coalesce.
#[test]
fn sequential_traffic_forms_batches_of_one_on_the_single_path() {
    let clock = ManualClock::new();
    let server = SelectorServer::with_parts(
        full_service(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        ServeHooks::default(),
        clock.as_clock_fn(),
    );
    for i in 0..5 {
        let sel = server
            .submit(Arc::new(cnn_bound()[i].clone()), None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(sel.source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.single_served, 5);
    assert_eq!(r.batched_served, 0);
    assert!(r.path_accounted(), "{r:?}");
    let snap = server.metrics_snapshot();
    let bs = snap.histogram("serve_batch_size", &[]).expect("recorded");
    assert_eq!((bs.count, bs.max), (5, 1), "every batch was a singleton");
}

/// Satellite 4: parallel hammering with the cache on and batching
/// active — the exact-accounting invariant, its path-level refinement,
/// and agreement between server rung counters and ladder counters must
/// all survive concurrency.
#[test]
fn rayon_stress_with_cache_and_batching_accounts_exactly() {
    let (_, _, data) = fixture();
    let server: SelectorServer<f32> = SelectorServer::new(
        full_service(),
        ServerConfig {
            workers: 3,
            queue_capacity: 8,
            cache: CacheConfig::enabled(256),
            ..ServerConfig::default()
        },
    );
    let total = 256usize;
    let outcomes = hammer(&server, data, total);
    let served = outcomes.iter().filter(|o| o.is_ok()).count() as u64;
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServeError::Overloaded { .. })))
        .count() as u64;
    assert_eq!(served + shed, total as u64, "unexpected outcome kinds");

    // A deterministic hit on top: serve one matrix twice sequentially.
    let m = Arc::new(cnn_bound()[0].clone());
    server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();

    let r = server.report();
    assert_eq!(r.submitted, total as u64 + 2);
    assert_eq!(r.shed, shed);
    assert_eq!(r.served, served + 2);
    assert_eq!(r.accounted(), r.submitted, "{r:?}");
    assert!(r.path_accounted(), "{r:?}");
    assert!(r.served_cache > 0, "repeated traffic must hit: {r:?}");
    // Cache hits never touch the ladder; everything else ran exactly
    // one rung.
    assert_eq!(r.ladder.answered(), r.served - r.served_cache);
    assert_eq!(r.served_cnn, r.ladder.cnn_ok);
    assert_eq!(r.served_tree, r.ladder.tree_ok);
    // Lookup accounting: every submission consulted the cache exactly
    // once (shed requests look up before hitting the full queue), even
    // with eight clients racing for the entries' hit counts. An entry
    // audits one hit in CACHE_AUDIT_PERIOD, and an audit that finds the
    // queue full is served as a hit, so the audits are at most that.
    assert_eq!(
        r.cache.hits + r.cache.misses + r.cache.stale + r.cache.audited,
        r.submitted
    );
    assert!(
        r.cache.audited <= (r.cache.hits + r.cache.audited) / CACHE_AUDIT_PERIOD,
        "{r:?}"
    );
    assert_eq!(r.cache.audit_mismatches, 0, "{r:?}");
    let snap = server.metrics_snapshot();
    assert_eq!(snap.gauge("serve_queue_depth", &[]), Some(0));
    assert_eq!(snap.gauge("serve_in_flight", &[]), Some(0));
    assert_eq!(
        snap.gauge("serve_cache_entries", &[]),
        Some(r.cache.entries)
    );
}

/// Time-boxed soak for CI (`--ignored`): sustained parallel load on the
/// real clock with periodic hot reloads for a fixed wall-clock budget,
/// a two-second CNN panic storm in the middle of it (the breaker trips,
/// the tree keeps answering, a probe restores the CNN once the storm
/// passes), then the same exactness checks as the stress test.
#[test]
#[ignore = "soak: run explicitly (CI runs it release, time-boxed)"]
fn soak_sustained_load_with_reloads_stays_consistent() {
    let (cnn, _, data) = fixture();
    let start = std::time::Instant::now();
    let stop_at = start + Duration::from_secs(10);
    let storm = start + Duration::from_secs(4)..start + Duration::from_secs(6);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if storm.contains(&std::time::Instant::now()) {
                CnnFault::Panic
            } else {
                CnnFault::None
            }
        })),
    };
    let server: SelectorServer<f32> = SelectorServer::with_parts(
        full_service(),
        ServerConfig {
            workers: 4,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
        hooks,
        dnnspmv::core::system_clock(),
    );
    let dir = std::env::temp_dir().join(format!("dnnspmv-serve-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    cnn.save(path.to_string_lossy().as_ref()).unwrap();

    // One request, tallied as (served, shed, expired). Anything else —
    // `WorkerLost` above all — fails the soak.
    let request = |i: usize| -> (u64, u64, u64) {
        let m = Arc::new(data.matrices[i % data.matrices.len()].clone());
        match server
            .submit(m, Some(Duration::from_secs(5)))
            .and_then(|p| p.wait())
        {
            Ok(_) => (1, 0, 0),
            Err(ServeError::Overloaded { .. }) => (0, 1, 0),
            Err(ServeError::DeadlineExceeded) => (0, 0, 1),
            Err(e) => panic!("unexpected soak error: {e}"),
        }
    };
    let add = |a: (u64, u64, u64), b: (u64, u64, u64)| (a.0 + b.0, a.1 + b.1, a.2 + b.2);
    // 8 concurrent clients, one scoped OS thread each: the storm has to
    // meet clients that really overlap.
    let (mut tally, reloads) = std::thread::scope(|scope| {
        let reloader = scope.spawn(|| {
            let mut ok = 0u64;
            while std::time::Instant::now() < stop_at {
                ok += u64::from(server.reload_model(&path).is_ok());
                std::thread::sleep(Duration::from_millis(250));
            }
            ok
        });
        let clients: Vec<_> = (0..8usize)
            .map(|t| {
                scope.spawn(move || {
                    let mut tally = (0u64, 0u64, 0u64);
                    let mut i = t;
                    while std::time::Instant::now() < stop_at {
                        tally = add(tally, request(i));
                        i += 7;
                    }
                    tally
                })
            })
            .collect();
        let tally = clients
            .into_iter()
            .map(|c| c.join().expect("soak client panicked"))
            .fold((0, 0, 0), add);
        (tally, reloader.join().expect("reloader panicked"))
    });
    // The storm ended four seconds before the load did, so the breaker
    // is normally closed already; a bounded trickle covers a probe that
    // was still backing off when the clients stopped.
    let give_up = std::time::Instant::now() + Duration::from_secs(10);
    while server.report().breaker.state != BreakerState::Closed
        && std::time::Instant::now() < give_up
    {
        tally = add(tally, request(0));
        std::thread::sleep(Duration::from_millis(5));
    }
    let (served, shed, expired) = tally;
    let _ = std::fs::remove_dir_all(&dir);

    let r = server.report();
    assert!(served > 0, "soak served nothing: {r:?}");
    assert!(reloads > 0, "soak never reloaded");
    assert!(r.breaker.to_open >= 1, "the storm never tripped: {r:?}");
    assert!(r.served_tree > 0, "the tree never answered: {r:?}");
    assert_eq!(r.breaker.state, BreakerState::Closed, "{r:?}");
    assert_eq!(r.submitted, served + shed + expired);
    assert_eq!(r.served, served);
    assert_eq!(r.shed, shed);
    assert_eq!(r.deadline_in_queue + r.deadline_in_flight, expired);
    assert_eq!(r.accounted(), r.submitted, "{r:?}");
    assert_eq!(r.reloads_ok, reloads);
}
