//! Deterministic fault-injection tests for the admission-controlled
//! selector server: burst load, deadlines, circuit breaker, hot
//! reload, and exact counter accounting under parallel hammering.
//!
//! All timing-sensitive behaviour runs against an injected fake clock
//! (an `AtomicU64` of nanoseconds advanced explicitly by the test or by
//! fault hooks), so nothing here depends on scheduler luck.

use dnnspmv::core::{
    BreakerConfig, BreakerState, CacheConfig, CnnFault, DtSelector, FormatSelector,
    SelectionSource, SelectorConfig, SelectorServer, SelectorService, ServeError, ServeHooks,
    ServerConfig,
};
use dnnspmv::gen::{Dataset, DatasetSpec};
use dnnspmv::nn::TrainConfig;
use dnnspmv::platform::{label_dataset, PlatformModel};
use dnnspmv::repr::ReprConfig;
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

/// A full CNN+tree ladder with the confidence gate disabled, so every
/// healthy CNN answer counts as a CNN answer.
fn full_service() -> SelectorService {
    let (cnn, dt, _) = fixture();
    SelectorService::new(Some(cnn.clone()), Some(dt.clone()))
        .unwrap()
        .with_confidence_threshold(0.0)
}

fn fake_clock() -> (Arc<AtomicU64>, dnnspmv::core::ClockFn) {
    let t = Arc::new(AtomicU64::new(0));
    let tc = Arc::clone(&t);
    (t, Arc::new(move || tc.load(Ordering::SeqCst)))
}

fn tight_breaker() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 3,
        open_backoff: Duration::from_nanos(1_000),
        max_backoff: Duration::from_nanos(8_000),
    }
}

/// Acceptance (a): a burst beyond queue capacity is shed with a typed
/// `Overloaded` error while every admitted request still completes, and
/// the terminal counters account for every single submission.
#[test]
fn burst_load_sheds_overloaded_and_admitted_requests_complete() {
    let (_, _, data) = fixture();
    let (_, clock) = fake_clock();
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
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock);
    let m = Arc::new(data.matrices[0].clone());

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
    let (_, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
    let advance = Arc::clone(&clock_raw);
    let hang = Arc::new(AtomicBool::new(false));
    let hang_h = Arc::clone(&hang);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if hang_h.load(Ordering::SeqCst) {
                // A CNN latency spike: time jumps past any deadline
                // before the forward pass starts.
                advance.fetch_add(1_000_000, Ordering::SeqCst);
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock);
    let m = Arc::new(data.matrices[1].clone());

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
    clock_raw.fetch_add(10_000_000, Ordering::SeqCst);
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
/// deadline trips the breaker within `failure_threshold` requests, the
/// tree keeps answering while the breaker is open, and the half-open
/// probe restores the CNN once the fault clears.
#[test]
fn hung_cnn_trips_breaker_tree_answers_probe_restores() {
    let (_, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
    let advance = Arc::clone(&clock_raw);
    let hang = Arc::new(AtomicBool::new(true));
    let hang_h = Arc::clone(&hang);
    let hooks = ServeHooks {
        cnn_fault: Some(Arc::new(move |_seq| {
            if hang_h.load(Ordering::SeqCst) {
                advance.fetch_add(1_000_000, Ordering::SeqCst);
            }
            CnnFault::None
        })),
    };
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        breaker: tight_breaker(),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock);
    let m = Arc::new(data.matrices[2].clone());
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
    clock_raw.fetch_add(10_000, Ordering::SeqCst);
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
    let (_, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
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
        breaker: tight_breaker(),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock);
    let m = Arc::new(data.matrices[3].clone());

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
    clock_raw.fetch_add(2_000, Ordering::SeqCst);
    let sel = server.submit(Arc::clone(&m), None).unwrap().wait().unwrap();
    assert_eq!(sel.source, SelectionSource::Tree);
    let r = server.report();
    assert_eq!(r.probes_failed, 1);
    assert_eq!(r.breaker.state, BreakerState::Open);
    assert_eq!(r.breaker.current_backoff_ns, 2_000);

    // Fault clears; after the doubled backoff the probe succeeds.
    panicking.store(false, Ordering::SeqCst);
    clock_raw.fetch_add(10_000, Ordering::SeqCst);
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
    let (cnn, _, data) = fixture();
    let (_, clock) = fake_clock();
    let server: SelectorServer<f32> = SelectorServer::with_parts(
        full_service(),
        ServerConfig {
            workers: 1,
            reload_attempts: 1,
            ..ServerConfig::default()
        },
        ServeHooks::default(),
        clock,
    );
    let m = Arc::new(data.matrices[4].clone());
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
    assert_eq!(sel_after.format, cnn.predict(&data.matrices[4]));
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
/// scoped client threads (the vendored rayon's `into_par_iter` runs
/// sequentially, which is one client). The barrier holds every client
/// until all 8 exist, so submissions really do come from concurrent OS
/// threads.
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
    let (cnn, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
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
            breaker: tight_breaker(),
            ..ServerConfig::default()
        },
        hooks,
        clock,
    );
    let m = Arc::new(data.matrices[5].clone());
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
    clock_raw.fetch_add(100_000, Ordering::SeqCst);
    assert_eq!(serve_one().source, SelectionSource::Cnn);
    // In-queue deadline expiry.
    clock_raw.fetch_add(10_000_000, Ordering::SeqCst);
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
    let (cnn, _, data) = fixture();
    let (_, clock) = fake_clock();
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        cache: CacheConfig::enabled(64),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, ServeHooks::default(), clock);
    let m = Arc::new(data.matrices[6].clone());

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

/// Tentpole stage B: a partial micro-batch is held open for exactly
/// `max_batch_wait` of *injected* time (the worker polls the fake
/// clock, so a frozen clock holds the gather window open indefinitely),
/// and a batch that reaches `max_batch` departs with no wait at all.
#[test]
fn micro_batch_departs_at_max_batch_wait_or_when_full() {
    let (_, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        max_batch: 4,
        max_batch_wait: Duration::from_micros(100),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, ServeHooks::default(), clock);

    // Three submissions: fewer than max_batch, so the worker gathers
    // them and holds the batch. With the clock frozen the gather window
    // cannot close, no matter how much real time passes.
    let pending: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(Arc::new(data.matrices[i].clone()), None)
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(
        server.report().served,
        0,
        "a partial batch must wait out max_batch_wait on the injected clock"
    );
    // Advance past the gather deadline: the batch of three departs.
    clock_raw.fetch_add(200_000, Ordering::SeqCst);
    for p in pending {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.batched_served, 3);
    assert_eq!(r.single_served, 0);

    // Four submissions: the batch fills to max_batch and departs
    // without any clock advance.
    let pending: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(Arc::new(data.matrices[10 + i].clone()), None)
                .unwrap()
        })
        .collect();
    for p in pending {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.batched_served, 7);
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
    let (_, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
    let advance = Arc::clone(&clock_raw);
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
                advance.fetch_add(1_000_000, Ordering::SeqCst);
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
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock);

    // Prime: park the worker so the next three submissions queue up and
    // form one batch on release.
    let priming = server
        .submit(Arc::new(data.matrices[0].clone()), None)
        .unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker never dequeued the priming job");
    let b = server
        .submit(Arc::new(data.matrices[1].clone()), None)
        .unwrap();
    let c = server
        .submit(
            Arc::new(data.matrices[2].clone()),
            Some(Duration::from_nanos(1_000)),
        )
        .unwrap();
    let d = server
        .submit(Arc::new(data.matrices[3].clone()), None)
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

/// Gathered batch × non-closed breaker: four requests gathered together
/// after the open backoff elapsed are fed through the worker routine one
/// at a time, so the window takes exactly one probe — the first member —
/// and its success closes the breaker for the three behind it.
#[test]
fn gathered_batch_on_open_breaker_takes_exactly_one_probe() {
    let (_, _, data) = fixture();
    let (clock_raw, clock) = fake_clock();
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
    // With the fake clock frozen the gather window never times out, so
    // every batch below departs exactly when its fourth member arrives.
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 16,
        breaker: tight_breaker(),
        max_batch: 4,
        max_batch_wait: Duration::from_micros(100),
        ..ServerConfig::default()
    };
    let server = SelectorServer::with_parts(full_service(), cfg, hooks, clock);
    let submit_four = |base: usize| -> Vec<_> {
        (0..4)
            .map(|i| {
                server
                    .submit(Arc::new(data.matrices[base + i].clone()), None)
                    .unwrap()
            })
            .collect()
    };

    // A panic storm through one shared pass: every member is still
    // answered (by the tree) and the third failure trips the breaker.
    for p in submit_four(0) {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Tree);
    }
    let r = server.report();
    assert_eq!(r.breaker.state, BreakerState::Open, "{r:?}");
    assert_eq!(r.batched_served, 4);

    // Fault clears, backoff elapses, four more arrive together.
    panicking.store(false, Ordering::SeqCst);
    clock_raw.fetch_add(2_000, Ordering::SeqCst);
    for p in submit_four(10) {
        assert_eq!(p.wait().unwrap().source, SelectionSource::Cnn);
    }
    let r = server.report();
    assert_eq!(r.probes_ok + r.probes_failed, 1, "one probe for the window");
    assert_eq!((r.breaker.to_half_open, r.breaker.to_closed), (1, 1));
    assert_eq!(r.breaker.state, BreakerState::Closed);
    assert_eq!(r.breaker_demoted, 0);
    assert_eq!(r.single_served, 4, "members were fed one at a time");
    assert_eq!(r.accounted(), r.submitted);
    assert!(r.path_accounted(), "{r:?}");
    let snap = server.metrics_snapshot();
    let bs = snap.histogram("serve_batch_size", &[]).expect("recorded");
    assert_eq!(
        (bs.count, bs.max),
        (2, 4),
        "both batches were gathered whole"
    );
}

/// Tentpole stage B, low load: sequential traffic forms batches of one,
/// which take the per-request path — batching must cost nothing when
/// there is nothing to coalesce.
#[test]
fn sequential_traffic_forms_batches_of_one_on_the_single_path() {
    let (_, _, data) = fixture();
    let (_, clock) = fake_clock();
    let server = SelectorServer::with_parts(
        full_service(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        ServeHooks::default(),
        clock,
    );
    for i in 0..5 {
        let sel = server
            .submit(Arc::new(data.matrices[i].clone()), None)
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
    let m = Arc::new(data.matrices[0].clone());
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
    // once (shed requests look up before hitting the full queue).
    assert_eq!(
        r.cache.hits + r.cache.misses + r.cache.stale + r.cache.expired,
        r.submitted
    );
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
            default_deadline: Some(Duration::from_secs(5)),
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(50),
            },
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
    // Scoped threads, not `into_par_iter`: the vendored rayon runs its
    // iterator adapters sequentially, and the storm has to meet clients
    // that really are concurrent.
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
