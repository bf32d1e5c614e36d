//! The repository benchmark. See `perfbench/README.md`.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name and unit and, as the last line of its
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

mod layers;
mod reference;
mod run;
mod setup;
mod timing;
mod trace;
mod util;
mod workloads;

use layers::Metric;
use run::Ops;
use std::process::ExitCode;
use timing::{median, Timer};
use workloads::{Spec, Traffic, SPECS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Depth-1 slices replayed by a traced run.
const TRACE_SLICES: usize = 4;
/// A run stops early, at a round boundary, rather than overrun the
/// driver's limit on a host (or a later commit) much slower than sized.
const OVERRUN: f64 = 5.0;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec: &SPECS[1],
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
        pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                args.spec = workloads::spec(&name).ok_or(format!(
                    "unknown workload '{name}' (expected {})",
                    SPECS.map(|s| s.name).join(" | ")
                ))?;
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--check" => args.check = true,
            "--pins" => args.pins = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// `workload seed corpus-hash traffic-hash` lines: the inputs every
/// recorded number was measured on.
const PINS: &str = include_str!("../pins.txt");

fn pinned(workload: &str, seed: u64) -> Option<(u64, u64)> {
    PINS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| Some((hex(f.next()?)?, hex(f.next()?)?)))
            .flatten()
    })
}

/// `Err` when the generators no longer produce the pinned inputs.
fn check_pins(spec: &Spec, seed: u64, corpus: u64, traffic: u64) -> Result<(), String> {
    let pin = pinned(spec.name, seed);
    if pin.is_some_and(|pin| pin != (corpus, traffic)) {
        return Err(format!(
            "inputs drifted: {} seed {seed} hashes to corpus {corpus:016x} traffic {traffic:016x}, pinned {:016x?}",
            spec.name, pin
        ));
    }
    let state = if pin.is_some() {
        "pinned"
    } else {
        "seed not pinned"
    };
    println!("inputs: corpus {corpus:016x} traffic {traffic:016x} ({state})");
    Ok(())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result_line(ops: Ops, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 1e300 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args, timer: &mut Timer, ops: &mut Ops) -> Result<Vec<Metric>, String> {
    let (spec, seed) = (args.spec, args.seed);
    let traffic = Traffic::generate(spec, seed);
    let setups = if args.check { 1 } else { SETUPS };
    let mut built = Vec::new();
    for _ in 0..setups {
        built.push(setup::setup(spec, timer));
    }
    let setup_s = median(built.iter().map(|b| b.2.corrected_s()).collect());
    let setup_raw_s = median(built.iter().map(|b| b.2.raw_s()).collect());
    // Set-up is a function of the seed: every repetition trains the
    // same model on the same corpus.
    let repeatable = built
        .windows(2)
        .all(|w| w[0].0.corpus_hash == w[1].0.corpus_hash && w[0].0.selector == w[1].0.selector);
    ops.record(repeatable);
    let (model, server, last) = built.pop().expect("at least one set-up");
    drop(built);
    check_pins(spec, seed, model.corpus_hash, traffic.hash())?;
    for (name, s) in &last.stages {
        println!(
            "  setup.{name:<8} {:>10.4} s  (raw {:.4})",
            s.corrected_s(),
            s.raw_s
        );
    }

    let (accuracy, heldout) = setup::heldout_accuracy(spec, seed, &model);
    let rounds = if args.check {
        2
    } else {
        (args.seconds * spec.rounds_per_second).ceil() as usize
    };
    let m = run::measure(
        spec,
        &model,
        &server,
        &traffic,
        rounds,
        args.seconds * OVERRUN,
        timer,
        ops,
    );
    let report = server.report();
    ops.record(report.accounted() == report.submitted);
    ops.record(report.path_accounted());
    let rss = peak_rss_mb();

    let (p50, p50_raw) = m.latency(0.5);
    let (p90, p90_raw) = m.latency(0.9);
    let (k10, k10_raw) = m.solve.speedup(10.0);
    let (k1000, k1000_raw) = m.solve.speedup(1000.0);
    let (iters, iters_raw) = m.solve.overhead_iters();
    let rps = m.depth8_requests as f64 / m.depth8.corrected_s;
    let rps_raw = m.depth8_requests as f64 / m.depth8.raw_s;
    let train = m.train_samples as f64 / m.train.corrected_s;
    let train_raw = m.train_samples as f64 / m.train.raw_s;
    let rows = [
        (
            "setup_s",
            "s",
            setup_s,
            setup_raw_s,
            format!("median of {setups} set-ups"),
        ),
        (
            "tts_speedup_k10",
            "x",
            k10,
            k10_raw,
            format!("{} solves, {} slices", m.solve.solves, m.rounds),
        ),
        (
            "tts_speedup_k1000",
            "x",
            k1000,
            k1000_raw,
            format!("{} solves", m.solve.solves),
        ),
        (
            "select_overhead_iters",
            "iters",
            iters,
            iters_raw,
            format!("{} solves", m.solve.solves),
        ),
        (
            "serve_p50_us",
            "us",
            p50,
            p50_raw,
            format!(
                "{} requests at depth 1, {} slices",
                m.lat_us.len(),
                m.rounds
            ),
        ),
        (
            "serve_p90_us",
            "us",
            p90,
            p90_raw,
            format!("{} requests beyond it", m.lat_us.len() / 10),
        ),
        (
            "serve_rps",
            "1/s",
            rps,
            rps_raw,
            format!(
                "{} requests at depth {}, {} slices",
                m.depth8_requests,
                run::DEPTH,
                m.depth8.slices
            ),
        ),
        (
            "train_samples_per_s",
            "1/s",
            train,
            train_raw,
            format!("{} samples, {} slices", m.train_samples, m.train.slices),
        ),
        (
            "heldout_accuracy",
            "share",
            accuracy,
            accuracy,
            format!("{heldout} held-out matrices"),
        ),
        ("peak_rss_mb", "MB", rss, rss, "VmHWM".to_string()),
    ];
    println!(
        "end to end ({} rounds; corrected to a {} us probe, raw beside it):",
        m.rounds,
        timing::PROBE_NOMINAL_US
    );
    let mut metrics = Vec::new();
    for (name, unit, value, raw, note) in rows {
        println!("  {name:<24} {value:>14.4} {unit:<6} (raw {raw:.4}; {note})");
        metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
    println!(
        "  depth-1 cache hits {}/{} = {:.4}; conversions that fell back to CSR {}/{}; probe median {:.1} us, slow-state share {:.3}, hand-off median {:.1} us",
        m.depth1_hits,
        m.depth1_requests,
        m.depth1_hits as f64 / m.depth1_requests as f64,
        m.solve.fallbacks,
        m.solve.solves,
        timer.median_probe_us(),
        timer.slow_share(),
        timer.median_handoff_us(),
    );
    Ok(metrics)
}

/// The traced run: per-layer metrics and `trace-<workload>-<seed>.json`.
fn per_layer(args: &Args, timer: &mut Timer, ops: &mut Ops) -> Result<Vec<Metric>, String> {
    let (spec, seed) = (args.spec, args.seed);
    let traffic = Traffic::generate(spec, seed);
    let (model, server, time) = setup::setup(spec, timer);
    check_pins(spec, seed, model.corpus_hash, traffic.hash())?;
    let slices = if args.check { 1 } else { TRACE_SLICES };
    let requests = spec.serve_chunk * slices;
    let (metrics, tracer) =
        layers::traced_run(spec, &model, &server, &traffic, &time, requests, timer, ops);
    let report = server.report();
    ops.record(report.accounted() == report.submitted && report.path_accounted());

    println!("per layer ({requests} requests replayed):");
    for m in &metrics {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // Inside the checkout, beside the build.
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{}-{seed}.json", spec.name));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(spec.name, seed)))
    {
        Ok(()) => println!("{} spans written to {}", tracer.spans.len(), path.display()),
        Err(e) => println!("trace not written to {}: {e}", path.display()),
    }
    Ok(metrics)
}

/// Every name `BENCHMARK.json` must list, for `--check`.
fn check_manifest(e2e: &[Metric], layers: &[Metric]) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("check: no BENCHMARK.json in the working directory, names not compared");
        return Ok(());
    };
    let listed = text.matches("\"name\"").count();
    let expected = e2e.len() + layers.len() + SPECS.len();
    let missing: Vec<&str> = e2e
        .iter()
        .chain(layers)
        .map(|m| m.name.as_str())
        .chain(SPECS.iter().map(|s| s.name))
        .filter(|n| !text.contains(&format!("\"name\": \"{n}\"")))
        .collect();
    if !missing.is_empty() || listed != expected {
        return Err(format!(
            "BENCHMARK.json lists {listed} names, the program prints {expected}; missing: {missing:?}"
        ));
    }
    println!("check: BENCHMARK.json lists all {expected} names");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.pins {
        // Regenerates pins.txt: `--pins` for seeds 1..=12 of every workload.
        for spec in &SPECS {
            let corpus = dnnspmv_gen::Dataset::generate(&spec.corpus_spec());
            let mut h = util::Fnv::new();
            corpus.matrices.iter().for_each(|m| h.matrix(m));
            for seed in 1..=12 {
                let traffic = Traffic::generate(spec, seed).hash();
                println!("{} {seed} {:016x} {traffic:016x}", spec.name, h.finish());
            }
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "workload {} seed {} seconds {} trace {} ({} hardware threads)",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    println!("why: {}", args.spec.why);
    let mut timer = Timer::new();
    let mut ops = Ops::default();
    let outcome = if args.check {
        end_to_end(&args, &mut timer, &mut ops).and_then(|e2e| {
            let layers = per_layer(&args, &mut timer, &mut ops)?;
            check_manifest(&e2e, &layers)?;
            Ok(e2e)
        })
    } else if args.trace {
        per_layer(&args, &mut timer, &mut ops)
    } else {
        end_to_end(&args, &mut timer, &mut ops)
    };
    let metrics = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = ops.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    println!("{}", result_line(ops, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} operations failed",
            ops.failed, ops.attempted
        );
        ExitCode::FAILURE
    }
}
