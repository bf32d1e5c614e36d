//! `dnnspmv` — the standalone selector tool, mirroring the interface of
//! the paper's artifact (`spmv_model.py train | test | predict <mtx>`).
//!
//! ```text
//! dnnspmv train   [--model FILE] [--matrices N] [--epochs N]
//!                 [--platform intel|amd|gpu|manycore]
//!                 [--checkpoint-dir DIR] [--resume FILE]
//!                 [--gemm-threads auto|serial|N]
//! dnnspmv test    [--model FILE] [--matrices N] [--platform intel|amd|gpu|manycore]
//! dnnspmv predict <matrix.mtx> [--model FILE]
//! dnnspmv stats   <matrix.mtx>
//! dnnspmv evolve  --journal DIR [--model FILE] [--out FILE] [--promote]
//!                 [--epochs N] [--strategy scratch|continuous|top]
//!                 [--margin X] [--holdout X] [--min-records N]
//!                 [--checkpoint-dir DIR] [--resume FILE]
//! dnnspmv chaos-soak [--quick] [--episodes N] [--seed S] [--max-rules K]
//!                    [--json FILE] [--replay SEED "SCHEDULE"]
//! ```
//!
//! `train` fits a CNN selector on a synthetic dataset labelled by the
//! chosen platform model and saves it (default
//! `dnnspmv_model.json`). `test` evaluates a saved model on a fresh
//! held-out dataset. `predict` reads a MatrixMarket file and prints the
//! chosen format (the artifact's example prints `CSR`). `stats` dumps a
//! matrix's structural statistics and per-format cost estimates.
//! `evolve` closes the online-learning loop offline: it replays the
//! crash-safe feedback journal a serving process wrote, fine-tunes the
//! saved model on the measured labels via the transfer machinery, and
//! shadow-scores the candidate against the incumbent on the most recent
//! held-out records. The candidate is written to `--out` only when it
//! beats the incumbent by `--margin`; a rejected candidate exits with
//! status 3 (distinct from usage errors) so automation can tell "gate
//! held" from "invocation broken". `--promote` additionally overwrites
//! `--model` in place on a passed gate.
//! `chaos-soak` (requires `--features chaos`) runs seeded failpoint
//! episodes over the whole closed loop and exits nonzero if any
//! standing invariant breaks or site coverage falls short; failing
//! episodes print a `(seed, schedule)` pair that `--replay` reruns
//! bit-identically.
//!
//! None of these commands is a benchmark or a metrics dump: timing the
//! system is `perfbench/`'s job (see `BENCHMARK.json`), and a running
//! server's live metrics come from its own registry
//! (`SelectorServer::metrics_snapshot`).

use dnnspmv::core::{make_samples, FormatSelector, SelectorConfig};
use dnnspmv::gen::{Dataset, DatasetSpec};
use dnnspmv::nn::{GemmThreading, TrainConfig};
use dnnspmv::platform::{label_dataset_noisy, PlatformModel, WorkloadProfile};
use dnnspmv::repr::ReprConfig;
use dnnspmv::sparse::io::read_matrix_market_path;
use dnnspmv::sparse::{CooMatrix, MatrixStats};

const DEFAULT_MODEL: &str = "dnnspmv_model.json";

struct Options {
    model: String,
    matrices: usize,
    epochs: usize,
    platform: PlatformModel,
    file: Option<String>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    gemm_threads: GemmThreading,
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        model: DEFAULT_MODEL.into(),
        matrices: 800,
        epochs: 14,
        platform: PlatformModel::intel_cpu(),
        file: None,
        checkpoint_dir: None,
        resume: None,
        gemm_threads: GemmThreading::Auto,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--model" => {
                i += 1;
                o.model = need(args, i, "--model");
            }
            "--matrices" => {
                i += 1;
                o.matrices = need(args, i, "--matrices")
                    .parse()
                    .unwrap_or_else(|_| die("--matrices needs a number"));
            }
            "--epochs" => {
                i += 1;
                o.epochs = need(args, i, "--epochs")
                    .parse()
                    .unwrap_or_else(|_| die("--epochs needs a number"));
            }
            "--checkpoint-dir" => {
                i += 1;
                o.checkpoint_dir = Some(need(args, i, "--checkpoint-dir"));
            }
            "--resume" => {
                i += 1;
                o.resume = Some(need(args, i, "--resume"));
            }
            "--gemm-threads" => {
                i += 1;
                o.gemm_threads = match need(args, i, "--gemm-threads").as_str() {
                    "auto" => GemmThreading::Auto,
                    "serial" | "1" => GemmThreading::Serial,
                    t => GemmThreading::Fixed(t.parse().unwrap_or_else(|_| {
                        die("--gemm-threads needs 'auto', 'serial' or a thread count")
                    })),
                };
            }
            "--platform" => {
                i += 1;
                o.platform = match need(args, i, "--platform").as_str() {
                    "intel" => PlatformModel::intel_cpu(),
                    "amd" => PlatformModel::amd_cpu(),
                    "gpu" => PlatformModel::nvidia_gpu(),
                    "manycore" => PlatformModel::manycore_cpu(),
                    other => die(&format!(
                        "unknown platform '{other}' (intel|amd|gpu|manycore)"
                    )),
                };
            }
            path if !path.starts_with('-') && o.file.is_none() => {
                o.file = Some(path.to_string());
            }
            other => die(&format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    o
}

fn need(args: &[String], i: usize, flag: &str) -> String {
    args.get(i)
        .unwrap_or_else(|| die(&format!("{flag} needs an argument")))
        .clone()
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn selector_config(o: &Options) -> SelectorConfig {
    SelectorConfig {
        repr_config: ReprConfig {
            image_size: 32,
            hist_rows: 32,
            hist_bins: 32,
        },
        train: TrainConfig {
            epochs: o.epochs,
            checkpoint_dir: o.checkpoint_dir.clone(),
            resume_from: o.resume.clone(),
            gemm_threading: o.gemm_threads,
            ..TrainConfig::default()
        },
        ..SelectorConfig::default()
    }
}

fn dataset(n: usize, seed: u64) -> Dataset {
    // 70 % base, the rest augmented from base pairs — so any non-empty
    // dataset needs at least one base matrix.
    let n_base = (n * 7 / 10).max(n.min(1));
    Dataset::generate(&DatasetSpec {
        n_base,
        n_augmented: n - n_base,
        dim_min: 48,
        dim_max: 256,
        seed,
        ..DatasetSpec::default()
    })
}

fn cmd_train(o: &Options) {
    println!(
        "training on {} synthetic matrices labelled for '{}'...",
        o.matrices, o.platform.name
    );
    let data = dataset(o.matrices, 1);
    let t0 = std::time::Instant::now();
    let labels = label_dataset_noisy(&data.matrices, &o.platform, 0.05, 1);
    let cfg = selector_config(o);
    let (sel, report) = FormatSelector::try_train_with_labels(
        &data.matrices,
        &labels,
        o.platform.formats().to_vec(),
        &cfg,
    )
    .unwrap_or_else(|e| die(&format!("training: {e}")));
    if let Some(epoch) = report.recovery.resumed_at_epoch {
        println!("resumed from checkpoint at epoch {epoch}");
    }
    let samples = make_samples(&data.matrices, &labels, cfg.repr, &cfg.repr_config);
    println!(
        "training accuracy: {:.3} ({} steps, {:.1}s)",
        sel.accuracy(&samples),
        report.loss_history.len(),
        t0.elapsed().as_secs_f64()
    );
    sel.save(&o.model)
        .unwrap_or_else(|e| die(&format!("saving {}: {e}", o.model)));
    println!("model saved to {}", o.model);
}

fn cmd_test(o: &Options) {
    let sel = FormatSelector::load(&o.model)
        .unwrap_or_else(|e| die(&format!("{} ({e}); run 'dnnspmv train' first", o.model)));
    // A fresh dataset (different seed from training) = held-out test.
    let data = dataset(o.matrices, 0xE57);
    let labels = label_dataset_noisy(&data.matrices, &o.platform, 0.05, 0xE57);
    if sel.formats != o.platform.formats() {
        die("model's format set does not match the chosen platform");
    }
    let samples = make_samples(
        &data.matrices,
        &labels,
        sel.config.repr,
        &sel.config.repr_config,
    );
    let acc = sel.accuracy(&samples);
    println!(
        "held-out accuracy on {} fresh matrices: {acc:.3}",
        data.len()
    );
    if acc > 0.9 {
        println!("(the artifact's check: accuracy should be larger than 90%)");
    }
}

fn cmd_predict(o: &Options) {
    let path = o
        .file
        .as_deref()
        .unwrap_or_else(|| die("predict needs a .mtx path"));
    let matrix: CooMatrix<f32> =
        read_matrix_market_path(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let sel = FormatSelector::load(&o.model)
        .unwrap_or_else(|e| die(&format!("{} ({e}); run 'dnnspmv train' first", o.model)));
    let probs = sel.predict_proba(&matrix);
    for (f, p) in sel.formats.iter().zip(&probs) {
        eprintln!("  P({f:>5}) = {p:.3}");
    }
    // The artifact prints just the chosen format name on stdout.
    println!("{}", sel.predict(&matrix));
}

fn cmd_stats(o: &Options) {
    let path = o
        .file
        .as_deref()
        .unwrap_or_else(|| die("stats needs a .mtx path"));
    let matrix: CooMatrix<f32> =
        read_matrix_market_path(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let s = MatrixStats::compute(&matrix);
    println!("{s:#?}");
    let profile = WorkloadProfile::compute(&matrix);
    for platform in [
        PlatformModel::intel_cpu(),
        PlatformModel::amd_cpu(),
        PlatformModel::nvidia_gpu(),
        PlatformModel::manycore_cpu(),
    ] {
        println!("\ncost-model ranking on {}:", platform.name);
        for (f, e) in platform.ranking(&profile) {
            println!("  {f:>5}: {e:.1}");
        }
    }
}

fn cmd_chaos_soak(args: &[String]) {
    use dnnspmv_bench::chaos_soak::{replay_episode, run_chaos_soak, ChaosSoakConfig};
    if !dnnspmv_chaos::ENABLED {
        die("chaos-soak needs the failpoint registry; rebuild with --features chaos");
    }
    let mut cfg = ChaosSoakConfig::default();
    let mut json_path: Option<String> = None;
    let mut replay_args: Option<(u64, String)> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                let (base_seed, max_rules) = (cfg.base_seed, cfg.max_rules);
                cfg = ChaosSoakConfig {
                    base_seed,
                    max_rules,
                    ..ChaosSoakConfig::quick()
                };
            }
            "--episodes" => {
                i += 1;
                cfg.episodes = need(args, i, "--episodes")
                    .parse()
                    .unwrap_or_else(|_| die("--episodes needs a number"));
            }
            "--seed" => {
                i += 1;
                cfg.base_seed = need(args, i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a number"));
            }
            "--max-rules" => {
                i += 1;
                cfg.max_rules = need(args, i, "--max-rules")
                    .parse()
                    .unwrap_or_else(|_| die("--max-rules needs a number"));
            }
            "--json" => {
                i += 1;
                json_path = Some(need(args, i, "--json"));
            }
            "--replay" => {
                i += 1;
                let seed = need(args, i, "--replay")
                    .parse()
                    .unwrap_or_else(|_| die("--replay needs a seed then a schedule"));
                i += 1;
                replay_args = Some((seed, need(args, i, "--replay")));
            }
            other => die(&format!("unknown chaos-soak flag '{other}'")),
        }
        i += 1;
    }
    if let Some((seed, schedule)) = replay_args {
        let schedule = schedule
            .parse()
            .unwrap_or_else(|e| die(&format!("bad schedule: {e}")));
        let (violations, trace) = replay_episode(seed, &schedule, &cfg);
        eprintln!("replay seed={seed} schedule=\"{schedule}\"");
        for t in &trace {
            eprintln!("  fire: {t}");
        }
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("  violation: {v}");
            }
            std::process::exit(1);
        }
        eprintln!("replay clean: every invariant held");
        return;
    }
    let report = run_chaos_soak(&cfg);
    eprint!("{}", report.render());
    println!("{}", report.to_json());
    if let Some(path) = json_path {
        report
            .write_json(&path)
            .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if !report.gates_passed() {
        std::process::exit(1);
    }
}

fn cmd_evolve(args: &[String]) {
    use dnnspmv::feedback::{evolve, replay, EvolveConfig, FeedbackError};
    use dnnspmv::nn::Migration;

    let mut journal: Option<String> = None;
    let mut model = String::from(DEFAULT_MODEL);
    let mut out: Option<String> = None;
    let mut promote = false;
    let mut cfg = EvolveConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--journal" => {
                i += 1;
                journal = Some(need(args, i, "--journal"));
            }
            "--model" => {
                i += 1;
                model = need(args, i, "--model");
            }
            "--out" => {
                i += 1;
                out = Some(need(args, i, "--out"));
            }
            "--promote" => promote = true,
            "--epochs" => {
                i += 1;
                cfg.train.epochs = need(args, i, "--epochs")
                    .parse()
                    .unwrap_or_else(|_| die("--epochs needs a number"));
            }
            "--strategy" => {
                i += 1;
                cfg.strategy = need(args, i, "--strategy")
                    .parse::<Migration>()
                    .unwrap_or_else(|e| die(&e));
            }
            "--margin" => {
                i += 1;
                cfg.margin = need(args, i, "--margin")
                    .parse()
                    .unwrap_or_else(|_| die("--margin needs a number"));
            }
            "--holdout" => {
                i += 1;
                cfg.holdout_frac = need(args, i, "--holdout")
                    .parse()
                    .unwrap_or_else(|_| die("--holdout needs a fraction"));
            }
            "--min-records" => {
                i += 1;
                cfg.min_records = need(args, i, "--min-records")
                    .parse()
                    .unwrap_or_else(|_| die("--min-records needs a number"));
            }
            "--checkpoint-dir" => {
                i += 1;
                cfg.train.checkpoint_dir = Some(need(args, i, "--checkpoint-dir"));
            }
            "--resume" => {
                i += 1;
                cfg.train.resume_from = Some(need(args, i, "--resume"));
            }
            other => die(&format!("unknown evolve flag '{other}'")),
        }
        i += 1;
    }
    let journal = journal.unwrap_or_else(|| die("evolve needs --journal DIR"));
    let out = out.unwrap_or_else(|| format!("{model}.candidate"));

    let incumbent = FormatSelector::load(&model)
        .unwrap_or_else(|e| die(&format!("{model} ({e}); train or serve a model first")));
    let (records, report) = replay(std::path::Path::new(&journal))
        .unwrap_or_else(|e| die(&format!("replaying {journal}: {e}")));
    eprintln!(
        "journal: {} records from {} segments ({} corrupt, {} torn-tail bytes, {} torn segments)",
        report.records,
        report.segments,
        report.corrupt_records,
        report.torn_tail_bytes,
        report.torn_segments
    );

    match evolve(&incumbent, &records, &cfg) {
        Ok((candidate, shadow, train_report)) => {
            eprintln!(
                "fine-tuned on {} records, {} epochs; shadow holdout {}: \
                 incumbent {:.3} vs candidate {:.3} (margin {:.3})",
                shadow.train_records,
                train_report.loss_history.len(),
                shadow.holdout_records,
                shadow.incumbent_accuracy,
                shadow.candidate_accuracy,
                shadow.margin
            );
            // The shadow report goes to stdout as JSON so automation can
            // archive the gate decision alongside the model files.
            println!(
                "{}",
                serde_json::to_string(&shadow).unwrap_or_else(|e| die(&format!("report: {e}")))
            );
            if !shadow.promote {
                eprintln!("shadow gate REJECTED the candidate; nothing written");
                std::process::exit(3);
            }
            candidate
                .save(&out)
                .unwrap_or_else(|e| die(&format!("saving {out}: {e}")));
            eprintln!("candidate saved to {out}");
            if promote {
                candidate
                    .save(&model)
                    .unwrap_or_else(|e| die(&format!("promoting over {model}: {e}")));
                eprintln!("promoted: {model} now holds the candidate");
            }
        }
        Err(FeedbackError::InsufficientRecords { have, need }) => {
            eprintln!("not enough usable records to evolve: {have} of {need} required");
            std::process::exit(3);
        }
        Err(e) => die(&format!("evolve: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("usage: dnnspmv <train|test|predict|stats|evolve|chaos-soak> [options]");
        std::process::exit(2);
    };
    if cmd == "evolve" {
        cmd_evolve(&args[1..]);
        return;
    }
    if cmd == "chaos-soak" {
        cmd_chaos_soak(&args[1..]);
        return;
    }
    let o = parse_options(&args[1..]);
    match cmd.as_str() {
        "train" => cmd_train(&o),
        "test" => cmd_test(&o),
        "predict" => cmd_predict(&o),
        "stats" => cmd_stats(&o),
        other => die(&format!("unknown command '{other}'")),
    }
}
