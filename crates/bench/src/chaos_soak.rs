//! `dnnspmv chaos-soak` — whole-system chaos soak.
//!
//! Each *episode* runs the full closed loop (serve → tap → journal →
//! drift → evolve → promote) under concurrent client load while a
//! seeded adversary fires a randomized multi-site failpoint schedule
//! drawn from [`dnnspmv_chaos::sites::CATALOG`]. After every episode
//! the driver disarms the registry and checks the system's standing
//! invariants — the ones that must hold *no matter what was injected*:
//!
//! * **accounting exact** — every submitted request lands in exactly
//!   one terminal bucket ([`ServerReport::accounted`] equals
//!   `submitted`, and the count matches the driver's own tally), and
//!   every served answer travelled exactly one hot-path route
//!   ([`ServerReport::path_accounted`]);
//! * **no panic escapes a worker** — injected panics are confined to
//!   sites with an unwind boundary, so no client ever observes
//!   [`ServeError::WorkerLost`] and no client thread dies;
//! * **journal replayable** — whatever subset of appends survived the
//!   injected write failures replays cleanly: zero corrupt records,
//!   zero torn segments, and a record count bracketed by the sampler's
//!   own success/error counters;
//! * **reload/promotion consistency** — a successful reload's returned
//!   generation is live, a failed one leaves the generation untouched,
//!   and the final generation equals the number of successful reloads;
//! * **breaker transitions legal** — probes only follow opens, closes
//!   only follow probes;
//! * **drained exit** — after shutdown the queue-depth and in-flight
//!   gauges return to zero.
//!
//! Even-seeded episodes serve with a decision tree trained beside the
//! CNN, so small matrices take the tree-first answer at admission under
//! the same faults; odd-seeded ones serve the CNN and its fallback
//! ladder alone.
//!
//! Every episode is a pure function of `(seed, schedule)`: a failing
//! episode prints both plus the ordered fire trace, and
//! `--replay <seed> <schedule>` reruns exactly that episode.

use crate::fixture::Fixture;
use dnnspmv_chaos::{sites, Schedule};
use dnnspmv_core::{
    CacheConfig, DtSelector, SelectorServer, SelectorService, ServeError, ServerConfig,
    ServerReport,
};
use dnnspmv_feedback::{
    evolve, replay, usable_samples, DriftConfig, DriftDetector, EvolveConfig, FeedbackSampler,
    GuardVerdict, JournalConfig, JournalWriter, ModelTimer, PromotionConfig, PromotionGuard,
    SamplerConfig,
};
use dnnspmv_nn::TrainConfig;
use serde::Serialize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Chaos-soak parameters.
#[derive(Debug, Clone)]
pub struct ChaosSoakConfig {
    /// Episodes to run (each gets `base_seed + index`).
    pub episodes: usize,
    /// Seed of the first episode.
    pub base_seed: u64,
    /// Most rules a random schedule may carry.
    pub max_rules: usize,
    /// Concurrent client threads per episode.
    pub clients: usize,
    /// Requests each client submits per episode.
    pub requests_per_client: usize,
    /// Matrices in the shared fixture pool.
    pub matrices: usize,
    /// Epochs for the fixture selector's one-time training.
    pub train_epochs: usize,
    /// Epochs for each episode's evolve pass.
    pub evolve_epochs: usize,
    /// Distinct sites that must fire across the whole run for the
    /// coverage gate to pass.
    pub min_distinct_sites: usize,
}

impl Default for ChaosSoakConfig {
    fn default() -> Self {
        Self {
            episodes: 120,
            base_seed: 0xC4A0_5000,
            max_rules: 4,
            clients: 3,
            requests_per_client: 40,
            matrices: 48,
            train_epochs: 3,
            evolve_epochs: 2,
            min_distinct_sites: 12,
        }
    }
}

impl ChaosSoakConfig {
    /// CI-scale run: same invariants, fewer episodes.
    pub fn quick() -> Self {
        Self {
            episodes: 60,
            requests_per_client: 30,
            ..Self::default()
        }
    }
}

/// One episode that violated an invariant, with everything needed to
/// replay it bit-identically.
#[derive(Debug, Clone, Serialize)]
pub struct EpisodeFailure {
    /// The episode's seed.
    pub seed: u64,
    /// The schedule, in its round-trippable text form.
    pub schedule: String,
    /// Human-readable invariant violations.
    pub violations: Vec<String>,
    /// The ordered fire trace (rendered [`dnnspmv_chaos::FireEvent`]s).
    pub trace: Vec<String>,
}

/// Aggregated per-site injection counters across the whole run.
#[derive(Debug, Clone, Serialize)]
pub struct SiteFireReport {
    /// Failpoint site name.
    pub site: String,
    /// Evaluations while scheduled, summed over episodes.
    pub calls: u64,
    /// Fires, summed over episodes.
    pub fires: u64,
}

/// Machine-readable soak result (`chaos-soak --json`).
#[derive(Debug, Clone, Serialize)]
pub struct ChaosSoakReport {
    /// The chaos feature was compiled in (a disabled registry cannot
    /// soak anything).
    pub enabled: bool,
    /// Episodes run.
    pub episodes: usize,
    /// Requests submitted across all episodes.
    pub requests: u64,
    /// Requests a tree-served episode answered from a pure tree leaf,
    /// summed over episodes.
    pub tree_first_served: u64,
    /// Total failpoint fires across all episodes.
    pub total_fires: u64,
    /// Distinct sites that fired at least once.
    pub distinct_sites_fired: usize,
    /// Coverage floor the run was judged against.
    pub min_distinct_sites: usize,
    /// Per-site aggregate counters (sites that were ever scheduled).
    pub site_fires: Vec<SiteFireReport>,
    /// Episodes that violated an invariant (empty on a clean run).
    pub failures: Vec<EpisodeFailure>,
    /// Whole-run wall clock, seconds.
    pub elapsed_s: f64,
}

impl ChaosSoakReport {
    /// The CI verdict: registry armed, every invariant held in every
    /// episode, the adversary exercised enough distinct sites, and the
    /// tree-first path answered under faults.
    pub fn gates_passed(&self) -> bool {
        self.enabled
            && self.failures.is_empty()
            && self.distinct_sites_fired >= self.min_distinct_sites
            && self.tree_first_served > 0
    }

    /// Human-readable run summary.
    pub fn render(&self) -> String {
        let gate = |ok: bool| if ok { "ok" } else { "FAILED" };
        let mut out = format!(
            "chaos soak ({:.1}s):\n\
             \x20 episodes          {}\n\
             \x20 requests          {}\n\
             \x20 tree-first        {} {}\n\
             \x20 fires             {} across {} distinct sites (floor {}) {}\n\
             \x20 violations        {} {}\n",
            self.elapsed_s,
            self.episodes,
            self.requests,
            self.tree_first_served,
            gate(self.tree_first_served > 0),
            self.total_fires,
            self.distinct_sites_fired,
            self.min_distinct_sites,
            gate(self.distinct_sites_fired >= self.min_distinct_sites),
            self.failures.len(),
            gate(self.failures.is_empty()),
        );
        for s in &self.site_fires {
            out.push_str(&format!(
                "  site {:<32} {:>6} calls {:>5} fires\n",
                s.site, s.calls, s.fires
            ));
        }
        for f in &self.failures {
            out.push_str(&format!(
                "  episode FAILED seed={} schedule=\"{}\"\n",
                f.seed, f.schedule
            ));
            for v in &f.violations {
                out.push_str(&format!("    violation: {v}\n"));
            }
            for t in &f.trace {
                out.push_str(&format!("    fire: {t}\n"));
            }
        }
        out
    }

    /// Serializes the report.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Writes the report to `path`.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The trained fixture every episode reuses: training it once keeps
/// per-episode cost down, and sharing it is sound because episodes
/// never mutate the incumbent — they evolve *copies* from their own
/// journals.
fn fixture(cfg: &ChaosSoakConfig) -> Fixture {
    Fixture::train(
        "chaos",
        cfg.matrices,
        32..=96,
        cfg.train_epochs,
        cfg.base_seed ^ 0xF1C5,
    )
}

/// What one episode observed, before invariant checking.
struct EpisodeRun {
    report: ServerReport,
    /// Requests the driver itself submitted (must equal
    /// `report.submitted`).
    attempts: u64,
    /// `WorkerLost` replies clients received (must be zero).
    worker_lost: u64,
    /// Client threads that died (must be zero).
    client_panics: u64,
    /// Mid-episode consistency violations (reload/promotion checks run
    /// while chaos is still armed).
    inline_violations: Vec<String>,
    /// Journal replay outcome (`None`: replay itself errored).
    journal: Option<(usize, dnnspmv_feedback::ReplayReport)>,
    journal_error: Option<String>,
    /// Sampler counters at the end of the episode.
    appended_ok: u64,
    append_errors: u64,
    /// Queue-depth / in-flight gauges after shutdown (must be 0/0).
    queue_depth: i64,
    in_flight: i64,
}

fn gauge(server: &SelectorServer<f32>, name: &str) -> i64 {
    server.metrics_snapshot().gauge(name, &[]).unwrap_or(0)
}

fn counter(server: &SelectorServer<f32>, name: &str) -> u64 {
    server.metrics_snapshot().counter(name, &[]).unwrap_or(0)
}

/// The decision tree trained on the fixture's pool and labels, beside
/// its CNN: what a tree-served episode asks first.
fn fixture_tree(fixture: &Fixture) -> DtSelector {
    DtSelector::train(
        &fixture.matrices,
        &fixture.labels,
        fixture.platform.formats().to_vec(),
    )
}

/// Runs the closed loop once under the armed registry. Everything this
/// function does happens *under chaos*; the caller disarms and judges.
fn run_episode_body(
    fixture: &Fixture,
    tree: Option<DtSelector>,
    cfg: &ChaosSoakConfig,
    dir: &Path,
) -> EpisodeRun {
    let service = SelectorService::new(Some(fixture.incumbent.clone()), tree)
        .expect("fixture selectors validate");
    let server = SelectorServer::new(
        service,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            cache: CacheConfig::enabled(512),
            max_batch: 4,
            reload_attempts: 2,
            reload_backoff: Duration::from_millis(1),
        },
    );
    let drift = Arc::new(DriftDetector::new(
        DriftConfig {
            window: 64,
            min_samples: 8,
            threshold: 0.7,
        },
        server.registry(),
    ));
    let journal_dir = dir.join("journal");
    let sampler = FeedbackSampler::new(
        SamplerConfig {
            sample_every: 1,
            queue_capacity: 256,
            repr: fixture.incumbent.config.repr,
            repr_config: fixture.incumbent.config.repr_config,
        },
        JournalWriter::open(
            &journal_dir,
            JournalConfig {
                // Small segments force rotations, so the rotate
                // failpoint sees real traffic.
                max_segment_bytes: 64 * 1024,
                sync_each_append: false,
            },
        )
        .expect("open episode journal"),
        Arc::clone(&drift),
        Arc::new(ModelTimer::new(fixture.platform.clone())),
        server.registry(),
    );
    assert!(server.set_serve_tap(sampler.tap()), "tap attaches once");

    let attempts = AtomicU64::new(0);
    let worker_lost = AtomicU64::new(0);
    let mut client_panics = 0u64;
    let inline_violations: Mutex<Vec<String>> = Mutex::new(Vec::new());

    // A tiny deterministic helper: submit one request and classify the
    // outcome. Shed / shutdown / deadline / overload are all *expected*
    // under chaos; only WorkerLost is a violation.
    let one_request = |i: usize, tid: usize| {
        let m = &fixture.matrices[(i * 7 + tid * 13) % fixture.matrices.len()];
        attempts.fetch_add(1, Ordering::Relaxed);
        let outcome = if i % 7 == 3 {
            server
                .submit(Arc::new(m.clone()), Some(Duration::from_millis(250)))
                .and_then(|p| p.wait())
        } else {
            server.select(m)
        };
        if let Err(ServeError::WorkerLost) = outcome {
            worker_lost.fetch_add(1, Ordering::Relaxed);
        }
    };

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..cfg.clients {
            let one_request = &one_request;
            handles.push(s.spawn(move || {
                for i in 0..cfg.requests_per_client {
                    one_request(i, tid);
                }
            }));
        }
        // The ops thread exercises hot reload concurrently with client
        // load and checks the generation contract inline.
        let server_ref = &server;
        let violations_ref = &inline_violations;
        let incumbent_path = &fixture.incumbent_path;
        handles.push(s.spawn(move || {
            for _ in 0..2 {
                let before = server_ref.model_generation();
                match server_ref.reload_model(incumbent_path) {
                    Ok(g) => {
                        if server_ref.model_generation() != g {
                            violations_ref
                                .lock()
                                .expect("violations lock")
                                .push(format!(
                                    "reload returned generation {g} but {} is live",
                                    server_ref.model_generation()
                                ));
                        }
                    }
                    Err(_) => {
                        if server_ref.model_generation() != before {
                            violations_ref
                                .lock()
                                .expect("violations lock")
                                .push(format!(
                                    "failed reload moved generation {before} -> {}",
                                    server_ref.model_generation()
                                ));
                        }
                    }
                }
            }
        }));
        for h in handles {
            if h.join().is_err() {
                client_panics += 1;
            }
        }
    });

    // Saving an artefact under chaos exercises the envelope sites; the
    // write is atomic, so a failure must leave no file behind.
    let copy_path = dir.join("incumbent-copy.json");
    match fixture.incumbent.save(copy_path.to_string_lossy().as_ref()) {
        Ok(()) => {}
        Err(_) => {
            if copy_path.exists() {
                inline_violations
                    .lock()
                    .expect("violations lock")
                    .push("failed artefact save left a final file behind".into());
            }
        }
    }

    // Evolve from whatever the journal managed to capture, then attempt
    // a guarded promotion of the candidate. Every failure here is a
    // legal degraded outcome; only consistency violations count. The
    // block gets its own unwind boundary because that is the production
    // shape — the evolve lane runs out-of-process (`dnnspmv evolve`),
    // so even a terminal training panic (injected step poisoning
    // exhausting the rollback budget) must not disturb serving.
    sampler.flush();
    let _ = sampler.sync(); // may carry an injected fsync failure
    let evolve_ctx = EvolveCtx {
        fixture,
        cfg,
        dir,
        journal_dir: &journal_dir,
        server: &server,
        drift: &drift,
        sampler: &sampler,
        attempts: &attempts,
        worker_lost: &worker_lost,
        violations: &inline_violations,
    };
    let _ = catch_unwind(AssertUnwindSafe(|| evolve_and_promote(&evolve_ctx)));

    // Shutdown: one straggler must be rejected-and-counted, then the
    // queue drains and the gauges return to zero.
    server.shutdown();
    attempts.fetch_add(1, Ordering::Relaxed);
    let _ = server.select(&fixture.matrices[0]);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (q, f) = (
            gauge(&server, "serve_queue_depth"),
            gauge(&server, "serve_in_flight"),
        );
        if (q == 0 && f == 0) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    sampler.flush();
    drop(sampler); // joins the sampler worker; all appends are final
    let appended_ok = counter(&server, "feedback_appended_total");
    let append_errors = counter(&server, "feedback_sample_errors_total");
    let queue_depth = gauge(&server, "serve_queue_depth");
    let in_flight = gauge(&server, "serve_in_flight");
    let report = server.report();
    drop(server); // joins workers

    let (journal, journal_error) = match replay(&journal_dir) {
        Ok((records, rr)) => (Some((records.len(), rr)), None),
        Err(e) => (None, Some(e.to_string())),
    };
    EpisodeRun {
        report,
        attempts: attempts.load(Ordering::Relaxed),
        worker_lost: worker_lost.load(Ordering::Relaxed),
        client_panics,
        inline_violations: inline_violations.into_inner().expect("violations lock"),
        journal,
        journal_error,
        appended_ok,
        append_errors,
        queue_depth,
        in_flight,
    }
}

/// Everything the crash-isolated evolve/promotion lane of one episode
/// needs by reference.
struct EvolveCtx<'a> {
    fixture: &'a Fixture,
    cfg: &'a ChaosSoakConfig,
    dir: &'a Path,
    journal_dir: &'a Path,
    server: &'a SelectorServer<f32>,
    drift: &'a Arc<DriftDetector>,
    sampler: &'a FeedbackSampler<f32>,
    attempts: &'a AtomicU64,
    worker_lost: &'a AtomicU64,
    violations: &'a Mutex<Vec<String>>,
}

/// The episode's evolve lane: journal replay → fine-tune → guarded
/// promotion → guard verdict. Every stage may fail under chaos — every
/// failure is a legal degraded outcome; only *consistency* violations
/// (a generation that moved on a failed reload, a rollback that
/// restored nothing) are recorded.
fn evolve_and_promote(ctx: &EvolveCtx<'_>) {
    let Ok((records, _)) = replay(ctx.journal_dir) else {
        return;
    };
    let ckpt_dir = ctx.dir.join("ckpt");
    let evolve_cfg = EvolveConfig {
        train: TrainConfig {
            epochs: ctx.cfg.evolve_epochs,
            batch_size: 16,
            checkpoint_dir: Some(ckpt_dir.to_string_lossy().into_owned()),
            ..ctx.fixture.incumbent.config.train.clone()
        },
        holdout_frac: 0.25,
        min_records: 8,
        margin: 0.0,
        ..EvolveConfig::default()
    };
    let Ok((candidate, _shadow, _)) = evolve(&ctx.fixture.incumbent, &records, &evolve_cfg) else {
        return;
    };
    // A checkpoint from the evolve pass feeds a one-epoch resumed
    // fine-tune, so the resume-read failpoint sees traffic. The typed
    // entry point is used deliberately: an injected resume failure is
    // an error, not a panic.
    let ckpt_file = dnnspmv_nn::checkpoint_path(&ckpt_dir);
    if ckpt_file.exists() {
        let samples = usable_samples(&ctx.fixture.incumbent, &records);
        if !samples.is_empty() {
            let resume_cfg = TrainConfig {
                epochs: ctx.cfg.evolve_epochs,
                batch_size: 16,
                checkpoint_dir: Some(ckpt_dir.to_string_lossy().into_owned()),
                resume_from: Some(ckpt_file.to_string_lossy().into_owned()),
                ..ctx.fixture.incumbent.config.train.clone()
            };
            let mut net = ctx.fixture.incumbent.net.clone();
            let _ = dnnspmv_nn::train_with_hooks(
                &mut net,
                &samples,
                &resume_cfg,
                dnnspmv_nn::TrainHooks::default(),
            );
        }
    }
    let candidate_path = ctx.dir.join("candidate.json");
    if candidate
        .save(candidate_path.to_string_lossy().as_ref())
        .is_err()
    {
        return;
    }
    let before = ctx.server.model_generation();
    match PromotionGuard::promote(
        ctx.server,
        ctx.drift,
        &candidate_path,
        &ctx.fixture.incumbent_path,
        PromotionConfig {
            margin: 0.1,
            min_samples: 4,
        },
    ) {
        Ok((mut guard, g)) => {
            if ctx.server.model_generation() != g {
                ctx.violations
                    .lock()
                    .expect("violations lock")
                    .push(format!(
                        "promotion installed generation {g} but {} is live",
                        ctx.server.model_generation()
                    ));
            }
            // Fresh post-promotion evidence, then the guard verdict; a
            // rollback must actually restore a previous artefact (the
            // generation bumps again).
            for i in 0..12 {
                let m = &ctx.fixture.matrices[i % ctx.fixture.matrices.len()];
                ctx.attempts.fetch_add(1, Ordering::Relaxed);
                if let Err(ServeError::WorkerLost) = ctx.server.select(m) {
                    ctx.worker_lost.fetch_add(1, Ordering::Relaxed);
                }
            }
            ctx.sampler.flush();
            if let Ok(GuardVerdict::RolledBack { .. }) = guard.check(ctx.server, ctx.drift) {
                if ctx.server.model_generation() != g + 1 {
                    ctx.violations
                        .lock()
                        .expect("violations lock")
                        .push("rollback did not install a new generation".into());
                }
                if !guard.rolled_back() {
                    ctx.violations
                        .lock()
                        .expect("violations lock")
                        .push("guard verdict and rolled_back() disagree".into());
                }
            }
        }
        Err(_) => {
            if ctx.server.model_generation() != before {
                ctx.violations
                    .lock()
                    .expect("violations lock")
                    .push(format!(
                        "failed promotion moved generation {before} -> {}",
                        ctx.server.model_generation()
                    ));
            }
        }
    }
}

/// Judges one finished episode against the standing invariants.
/// `admission_sheds` counts injected admission failures: those requests
/// are shed before they reach the decision cache.
fn check_invariants(run: &EpisodeRun, admission_sheds: u64) -> Vec<String> {
    let mut v = run.inline_violations.clone();
    let r = &run.report;
    if r.accounted() != r.submitted {
        v.push(format!(
            "accounting leak: submitted {} but accounted {}",
            r.submitted,
            r.accounted()
        ));
    }
    if r.submitted != run.attempts {
        v.push(format!(
            "driver submitted {} requests but the server counted {}",
            run.attempts, r.submitted
        ));
    }
    if !r.path_accounted() {
        v.push(format!(
            "path accounting broken: served {} != cache {} + tree-first {} + batched {} + single {}",
            r.served, r.served_cache, r.tree_first_served, r.batched_served, r.single_served
        ));
    }
    let c = &r.cache;
    let lookups = c.hits + c.misses + c.stale + c.audited;
    if lookups + r.rejected_shutdown + admission_sheds != r.submitted {
        v.push(format!(
            "cache lookup accounting broken: hits {} + misses {} + stale {} + audited {} \
             != submitted {} - rejected_shutdown {} - admission sheds {admission_sheds}",
            c.hits, c.misses, c.stale, c.audited, r.submitted, r.rejected_shutdown
        ));
    }
    if run.worker_lost > 0 {
        v.push(format!(
            "{} requests lost their worker (panic escaped the unwind boundary)",
            run.worker_lost
        ));
    }
    if run.client_panics > 0 {
        v.push(format!("{} client threads panicked", run.client_panics));
    }
    match (&run.journal, &run.journal_error) {
        (Some((records, rr)), _) => {
            if rr.corrupt_records != 0 {
                v.push(format!("{} corrupt journal records", rr.corrupt_records));
            }
            if rr.torn_segments != 0 {
                v.push(format!("{} torn journal segments", rr.torn_segments));
            }
            let lo = run.appended_ok;
            let hi = run.appended_ok + run.append_errors;
            if !(lo..=hi).contains(&(*records as u64)) {
                v.push(format!(
                    "journal replayed {records} records, outside [{lo}, {hi}] \
                     (appended {} ok, {} errored)",
                    run.appended_ok, run.append_errors
                ));
            }
        }
        (None, Some(e)) => v.push(format!("journal replay failed: {e}")),
        (None, None) => v.push("journal replay missing".into()),
    }
    if r.model_generation != r.reloads_ok {
        v.push(format!(
            "generation {} != successful reloads {}",
            r.model_generation, r.reloads_ok
        ));
    }
    let b = &r.breaker;
    if b.to_half_open > b.to_open {
        v.push(format!(
            "breaker probed ({}) more often than it opened ({})",
            b.to_half_open, b.to_open
        ));
    }
    if b.to_closed > b.to_half_open {
        v.push(format!(
            "breaker closed ({}) more often than it probed ({})",
            b.to_closed, b.to_half_open
        ));
    }
    if run.queue_depth != 0 || run.in_flight != 0 {
        v.push(format!(
            "did not drain: queue depth {} in flight {}",
            run.queue_depth, run.in_flight
        ));
    }
    v
}

/// What one judged episode hands back to the soak and to `--replay`.
struct EpisodeOutcome {
    violations: Vec<String>,
    stats: Vec<dnnspmv_chaos::SiteStats>,
    trace: Vec<String>,
    /// Requests the driver submitted (0 if the episode body panicked).
    attempts: u64,
    /// The server's tree-first answers (0 on an odd seed).
    tree_first_served: u64,
}

/// Runs one `(seed, schedule)` episode end to end: arm, run, disarm,
/// judge. This is also the `--replay` entry point — the episode is a
/// pure function of its arguments plus the shared fixture and tree,
/// which it serves beside the CNN on even seeds only.
fn run_episode(
    fixture: &Fixture,
    tree: &DtSelector,
    seed: u64,
    schedule: &Schedule,
    cfg: &ChaosSoakConfig,
) -> EpisodeOutcome {
    let dir = fixture.dir.join(format!("ep-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("episode dir");
    let tree = seed.is_multiple_of(2).then(|| tree.clone());
    dnnspmv_chaos::configure(seed, schedule);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_episode_body(fixture, tree, cfg, &dir)
    }));
    dnnspmv_chaos::deactivate();
    let stats = dnnspmv_chaos::site_stats();
    let fired = dnnspmv_chaos::trace();
    let admission_sheds = fired
        .iter()
        .filter(|e| e.site == sites::SERVE_ADMISSION && e.action == dnnspmv_chaos::Action::Err)
        .count() as u64;
    let trace: Vec<String> = fired.iter().map(|e| e.to_string()).collect();
    let (violations, attempts, tree_first_served) = match outcome {
        Ok(run) => (
            check_invariants(&run, admission_sheds),
            run.attempts,
            run.report.tree_first_served,
        ),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into());
            (vec![format!("episode body panicked: {msg}")], 0, 0)
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    EpisodeOutcome {
        violations,
        stats,
        trace,
        attempts,
        tree_first_served,
    }
}

/// Replays one captured `(seed, schedule)` episode and returns its
/// violations (empty: the episode is clean under the current build).
pub fn replay_episode(
    seed: u64,
    schedule: &Schedule,
    cfg: &ChaosSoakConfig,
) -> (Vec<String>, Vec<String>) {
    let fixture = fixture(cfg);
    let out = run_episode(&fixture, &fixture_tree(&fixture), seed, schedule, cfg);
    (out.violations, out.trace)
}

/// Runs the soak: `cfg.episodes` seeded episodes, each with a fresh
/// random schedule, each judged against every standing invariant.
pub fn run_chaos_soak(cfg: &ChaosSoakConfig) -> ChaosSoakReport {
    let t_start = Instant::now();
    if !dnnspmv_chaos::ENABLED {
        return ChaosSoakReport {
            enabled: false,
            episodes: 0,
            requests: 0,
            tree_first_served: 0,
            total_fires: 0,
            distinct_sites_fired: 0,
            min_distinct_sites: cfg.min_distinct_sites,
            site_fires: Vec::new(),
            failures: Vec::new(),
            elapsed_s: t_start.elapsed().as_secs_f64(),
        };
    }
    let fixture = fixture(cfg);
    let tree = fixture_tree(&fixture);
    let mut site_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut requests = 0u64;
    let mut tree_first_served = 0u64;
    // Injected panics are routine here and every one is caught and
    // judged by invariant; the default hook's backtrace spam would
    // drown the report. `--replay` keeps the default hook, so a single
    // episode under diagnosis stays verbose.
    let quiet_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for e in 0..cfg.episodes {
        let seed = cfg.base_seed.wrapping_add(e as u64);
        let schedule = Schedule::random(seed, sites::CATALOG, cfg.max_rules);
        let out = run_episode(&fixture, &tree, seed, &schedule, cfg);
        requests += out.attempts;
        tree_first_served += out.tree_first_served;
        for s in &out.stats {
            let t = site_totals.entry(s.site.clone()).or_insert((0, 0));
            t.0 += s.calls;
            t.1 += s.fires;
        }
        if !out.violations.is_empty() {
            eprintln!("episode FAILED seed={seed} schedule=\"{schedule}\"");
            for v in &out.violations {
                eprintln!("  violation: {v}");
            }
            failures.push(EpisodeFailure {
                seed,
                schedule: schedule.to_string(),
                violations: out.violations,
                trace: out.trace,
            });
        }
    }
    std::panic::set_hook(quiet_hook);
    let site_fires: Vec<SiteFireReport> = site_totals
        .into_iter()
        .map(|(site, (calls, fires))| SiteFireReport { site, calls, fires })
        .collect();
    ChaosSoakReport {
        enabled: true,
        episodes: cfg.episodes,
        requests,
        tree_first_served,
        total_fires: site_fires.iter().map(|s| s.fires).sum(),
        distinct_sites_fired: site_fires.iter().filter(|s| s.fires > 0).count(),
        min_distinct_sites: cfg.min_distinct_sites,
        site_fires,
        failures,
        elapsed_s: t_start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_refuses_to_soak() {
        if dnnspmv_chaos::ENABLED {
            return; // this test pins the *disabled* behaviour
        }
        let report = run_chaos_soak(&ChaosSoakConfig::quick());
        assert!(!report.enabled);
        assert!(!report.gates_passed());
        assert_eq!(report.episodes, 0);
    }

    // The enabled-build soak itself is exercised by `dnnspmv chaos-soak`
    // and the root crate's chaos regression test; a couple of episodes
    // here keep the driver honest under `--features chaos` test runs.
    #[test]
    fn two_episodes_hold_invariants_when_enabled() {
        if !dnnspmv_chaos::ENABLED {
            return;
        }
        let cfg = ChaosSoakConfig {
            episodes: 2,
            matrices: 24,
            train_epochs: 1,
            evolve_epochs: 1,
            requests_per_client: 10,
            min_distinct_sites: 0,
            ..ChaosSoakConfig::quick()
        };
        let report = run_chaos_soak(&cfg);
        assert!(report.enabled);
        assert!(
            report.failures.is_empty(),
            "chaos episodes violated invariants: {:?}",
            report.failures
        );
        assert!(
            report.tree_first_served > 0,
            "the even-seeded episode serves tree-first answers"
        );
    }
}
