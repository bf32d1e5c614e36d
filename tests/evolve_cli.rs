//! Exit-code contract of `dnnspmv evolve`: 0 when the shadow gate
//! promotes, 3 when it holds (or there is too little data), 2 on a
//! broken invocation. The journal is built in-process with the same
//! writer the serving sampler uses, so the binary replays exactly what
//! production would hand it. Two more cases pin the contract for the
//! rest of the CLI: an unknown command is one `error:` line and exit 2,
//! and the smallest possible `train` run succeeds.

use dnnspmv::core::{samples::make_channels, FormatSelector, SelectionSource, SelectorConfig};
use dnnspmv::feedback::{FeedbackRecord, JournalConfig, JournalWriter};
use dnnspmv::gen::{Dataset, DatasetSpec};
use dnnspmv::nn::TrainConfig;
use dnnspmv::platform::{label_dataset, PlatformModel};
use dnnspmv::repr::ReprConfig;
use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dnnspmv"))
}

/// Trains a tiny incumbent, saves it, and journals records whose
/// measured labels are *shifted* off the training labels — the same
/// "platform changed underneath the model" setup the closed-loop soak
/// drifts with, so a fine-tune has real signal to learn.
fn fixture(dir: &Path) -> (String, String) {
    let data = Dataset::generate(&DatasetSpec {
        n_base: 48,
        n_augmented: 12,
        dim_min: 48,
        dim_max: 96,
        seed: 77,
        ..DatasetSpec::default()
    });
    let intel = PlatformModel::intel_cpu();
    let labels = label_dataset(&data.matrices, &intel);
    let cfg = SelectorConfig {
        repr_config: ReprConfig {
            image_size: 32,
            hist_rows: 32,
            hist_bins: 32,
        },
        train: TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        },
        ..SelectorConfig::default()
    };
    let (sel, _) =
        FormatSelector::train_with_labels(&data.matrices, &labels, intel.formats().to_vec(), &cfg);
    let model_path = dir.join("model.json");
    sel.save(&model_path).unwrap();

    let journal_dir = dir.join("journal");
    let mut writer = JournalWriter::open(&journal_dir, JournalConfig::default()).unwrap();
    let k = sel.formats.len();
    for (i, (m, &label)) in data.matrices.iter().zip(&labels).enumerate() {
        let shifted = sel.formats[(label + 1) % k];
        writer
            .append(&FeedbackRecord {
                seq: i as u64,
                fingerprint: i as u64,
                generation: 0,
                chosen: sel.formats[label],
                source: SelectionSource::Cnn,
                measured_best: shifted,
                timings: vec![(shifted, 1.0e-6)],
                channels: make_channels(m, sel.config.repr, &sel.config.repr_config),
                nrows: m.nrows(),
                ncols: m.ncols(),
                nnz: m.nnz(),
            })
            .unwrap();
    }
    writer.sync().unwrap();
    (
        model_path.to_string_lossy().into_owned(),
        journal_dir.to_string_lossy().into_owned(),
    )
}

#[test]
fn evolve_cli_gate_and_usage_exit_codes() {
    let dir = std::env::temp_dir().join(format!("dnnspmv-evolve-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (model, journal) = fixture(&dir);
    let out_path = dir.join("candidate.json");

    // Usage error: no --journal.
    let usage = bin().arg("evolve").output().unwrap();
    assert_eq!(usage.status.code(), Some(2));

    // Gate held: an absurd margin no candidate can clear. Exit 3 and
    // no artefact written.
    let rejected = bin()
        .args(["evolve", "--journal", &journal, "--model", &model])
        .args(["--out", out_path.to_string_lossy().as_ref()])
        .args(["--epochs", "1", "--margin", "2.0", "--min-records", "8"])
        .output()
        .unwrap();
    assert_eq!(
        rejected.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&rejected.stderr)
    );
    assert!(!out_path.exists(), "rejected candidate must not be saved");

    // Gate passed: the shifted labels are learnable, the incumbent
    // scores ~0 on them, so a real fine-tune clears the margin. The
    // shadow report lands on stdout as JSON.
    let promoted = bin()
        .args(["evolve", "--journal", &journal, "--model", &model])
        .args(["--out", out_path.to_string_lossy().as_ref()])
        .args(["--epochs", "10", "--margin", "0.05", "--min-records", "8"])
        .output()
        .unwrap();
    assert_eq!(
        promoted.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&promoted.stderr)
    );
    assert!(out_path.exists(), "promoted candidate must be saved");
    let stdout = String::from_utf8_lossy(&promoted.stdout);
    assert!(
        stdout.contains("\"promote\":true"),
        "shadow report missing from stdout: {stdout}"
    );
    // The artefact is a loadable selector.
    FormatSelector::load(&out_path).expect("candidate artefact loads");

    // Insufficient data is a gate-style failure (3), not a usage error.
    let empty_journal = dir.join("empty-journal");
    let starved = bin()
        .args(["evolve", "--model", &model])
        .args(["--journal", empty_journal.to_string_lossy().as_ref()])
        .output()
        .unwrap();
    assert_eq!(starved.status.code(), Some(3));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_exits_2_with_one_line() {
    let out = bin().arg("metrics").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unknown command 'metrics'\n"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn train_on_a_single_matrix_succeeds_and_writes_the_model() {
    let dir = std::env::temp_dir().join(format!("dnnspmv-train-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("one.json");
    let out = bin()
        .args(["train", "--matrices", "1", "--epochs", "1"])
        .args(["--model", model.to_string_lossy().as_ref()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    FormatSelector::load(&model).expect("saved model loads");
    let _ = std::fs::remove_dir_all(&dir);
}
