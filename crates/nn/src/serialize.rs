//! Artefact persistence: versioned, checksummed JSON envelopes.
//!
//! The trained selector is a one-time artefact per platform (the paper
//! reports ~27 min of training), so it is saved and shipped; JSON keeps
//! the format debuggable and dependency-light. Both artefacts that
//! carry a network — a training checkpoint
//! ([`crate::checkpoint::KIND_CHECKPOINT`]) and a format selector
//! (`dnnspmv-core`'s `"format-selector"`) — are wrapped in an
//! `Envelope`:
//!
//! ```text
//! { "magic": "dnnspmv",
//!   "format_version": 2,        // bumped on layout changes
//!   "kind": "train-checkpoint", // what the payload is
//!   "fingerprint": <u64>,       // structural/config hash
//!   "checksum": <u64>,          // FNV-1a over the payload bytes
//!   "payload": "<inner JSON>" }
//! ```
//!
//! [`read_envelope`] checks, in order: envelope JSON → magic → format
//! version → kind tag → payload checksum → payload JSON. Each loader
//! then validates the network it carries ([`Cnn::validate`]) and
//! compares the fingerprint. Each failure maps to a distinct
//! [`NnError`] variant; no panic is reachable from file contents.
//! Payload fields are looked up by name and unknown keys are ignored,
//! so an artefact that still carries a since-removed field loads.
//! Writes to a path go through a temp file in the same directory and an
//! atomic rename, so a crash mid-write never leaves a truncated
//! artefact under the final name.

use crate::error::NnError;
use crate::network::Cnn;
use crate::structures::describe_structure;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// Current envelope layout version.
///
/// History: v1 shipped with the 7-format universe; v2 widened the
/// sparse-format enum with SELL-C-σ and merge-path CSR, which changes
/// selector class heads and per-format tables, so v1 artefacts must be
/// retrained rather than silently reinterpreted.
pub const FORMAT_VERSION: u32 = 2;

/// FNV-1a 64-bit hash — the envelope checksum. Not cryptographic;
/// catches truncation and bit rot, which is all an integrity check on
/// a local artefact needs. Re-exported from the shared
/// `dnnspmv-fingerprint` crate so envelopes and the serving layer's
/// decision cache agree on one pinned digest.
pub use dnnspmv_fingerprint::fnv1a64;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    magic: String,
    format_version: u32,
    kind: String,
    fingerprint: u64,
    checksum: u64,
    payload: String,
}

/// Serialises `value` into an envelope of the given kind and writes it.
pub fn write_envelope<T: Serialize, W: Write>(
    kind: &str,
    fingerprint: u64,
    value: &T,
    w: W,
) -> Result<(), NnError> {
    let payload = serde_json::to_string(value).map_err(|e| NnError::Serde(e.to_string()))?;
    let env = Envelope {
        magic: "dnnspmv".into(),
        format_version: FORMAT_VERSION,
        kind: kind.into(),
        fingerprint,
        checksum: fnv1a64(payload.as_bytes()),
        payload,
    };
    serde_json::to_writer(w, &env).map_err(|e| NnError::Serde(e.to_string()))
}

/// Reads an envelope of the given kind, verifying magic, version and
/// checksum, and deserialises its payload. Returns the value and the
/// stored fingerprint (the caller decides what it must match).
pub fn read_envelope<T: Deserialize, R: Read>(kind: &str, r: R) -> Result<(T, u64), NnError> {
    let env: Envelope = serde_json::from_reader(r).map_err(|e| NnError::Serde(e.to_string()))?;
    if env.magic != "dnnspmv" {
        return Err(NnError::Serde(format!(
            "bad magic '{}' (not a dnnspmv artefact)",
            env.magic
        )));
    }
    // Reject both directions: newer artefacts use layouts this build
    // cannot parse, and older ones were trained against a different
    // format universe (class labels would silently shift meaning).
    if env.format_version != FORMAT_VERSION {
        return Err(NnError::FormatVersion {
            found: env.format_version,
            supported: FORMAT_VERSION,
        });
    }
    if env.kind != kind {
        return Err(NnError::WrongKind {
            found: env.kind,
            expected: kind.into(),
        });
    }
    let computed = fnv1a64(env.payload.as_bytes());
    if computed != env.checksum {
        return Err(NnError::ChecksumMismatch {
            stored: env.checksum,
            computed,
        });
    }
    let value = serde_json::from_str(&env.payload).map_err(|e| NnError::Serde(e.to_string()))?;
    Ok((value, env.fingerprint))
}

/// Writes an envelope to `path` atomically: serialise to `<path>.tmp`
/// in the same directory, fsync, then rename over the final name. A
/// crash mid-write leaves either the old artefact or a stray temp
/// file — never a truncated file under `path`.
pub fn write_envelope_atomic<T: Serialize, P: AsRef<Path>>(
    kind: &str,
    fingerprint: u64,
    value: &T,
    path: P,
) -> Result<(), NnError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    // Serialise up front: a serde failure never creates the temp file,
    // and the write below is a single buffer (so an interrupted write
    // — real or injected — is an honest prefix of the artefact).
    let mut bytes = Vec::new();
    write_envelope(kind, fingerprint, value, &mut bytes)?;
    let result = (|| -> Result<(), NnError> {
        let mut f = std::fs::File::create(&tmp)?;
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::ENVELOPE_WRITE) {
            // ENOSPC mid-buffer: some bytes land, then the device is
            // full. The truncated file only ever exists under the temp
            // name, which is exactly what the atomic protocol promises.
            f.write_all(&bytes[..bytes.len() / 2])?;
            return Err(NnError::StorageFull(format!(
                "chaos: short write to {}",
                tmp.display()
            )));
        }
        f.write_all(&bytes)?;
        dnnspmv_chaos::failpoint!(
            dnnspmv_chaos::sites::ENVELOPE_FSYNC,
            Err(NnError::Io(format!(
                "chaos: injected fsync failure on {}",
                tmp.display()
            )))
        );
        f.sync_all()?;
        drop(f);
        dnnspmv_chaos::failpoint!(
            dnnspmv_chaos::sites::ENVELOPE_RENAME,
            Err(NnError::Io(format!(
                "chaos: injected rename failure onto {}",
                path.display()
            )))
        );
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    result.inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Reads an envelope of the given kind from a file path.
pub fn read_envelope_path<T: Deserialize, P: AsRef<Path>>(
    kind: &str,
    path: P,
) -> Result<(T, u64), NnError> {
    let f = std::fs::File::open(path)?;
    read_envelope(kind, std::io::BufReader::new(f))
}

/// Structural fingerprint of a network: its layer schedule plus input
/// contract. Stored in a selector's envelope and re-derived at load time,
/// so an envelope whose payload was swapped for a differently shaped
/// network is rejected even when both halves are individually valid.
pub fn model_fingerprint(net: &Cnn) -> u64 {
    let desc = format!(
        "{}|channels={}|shape={}x{}",
        describe_structure(net),
        net.num_channels,
        net.channel_shape.0,
        net.channel_shape.1
    );
    fnv1a64(desc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{load_checkpoint, save_checkpoint, TrainCheckpoint, KIND_CHECKPOINT};
    use crate::optimizer::{Optimizer, OptimizerKind};
    use crate::structures::{build_cnn, CnnConfig, Merging};
    use crate::tensor::Tensor;
    use crate::train::TrainReport;
    use std::path::PathBuf;

    /// Kind tag the envelope tests write and read under.
    const KIND_TEST: &str = "test-network";

    fn tiny() -> Cnn {
        build_cnn(
            Merging::Late,
            2,
            (16, 16),
            3,
            &CnnConfig {
                conv_channels: [2, 4, 4],
                hidden: 8,
                seed: 3,
            },
        )
    }

    /// A file path of this process, removed when dropped (a failed
    /// assertion included).
    struct TmpFile(PathBuf);

    impl TmpFile {
        fn new(tag: &str) -> Self {
            let name = format!("dnnspmv_serialize_{tag}_{}.json", std::process::id());
            Self(std::env::temp_dir().join(name))
        }
    }

    impl Drop for TmpFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    /// `net` at epoch 0 of a run, as the trainer would checkpoint it.
    fn checkpoint_of(mut net: Cnn) -> TrainCheckpoint {
        let opt = Optimizer::new(&mut net, OptimizerKind::adam(), 1e-3, false);
        TrainCheckpoint {
            epoch: 0,
            step_counter: 0,
            samples_len: 4,
            net,
            opt,
            report: TrainReport::empty(),
            time_steps: 0,
            total_s: 0.0,
            min_s: 0.0,
            max_s: 0.0,
        }
    }

    fn envelope_bytes(net: &Cnn) -> Vec<u8> {
        let mut buf = Vec::new();
        write_envelope(KIND_TEST, model_fingerprint(net), net, &mut buf).unwrap();
        buf
    }

    fn read_net(bytes: &[u8]) -> Result<Cnn, NnError> {
        read_envelope::<Cnn, _>(KIND_TEST, bytes).map(|(net, _)| net)
    }

    #[test]
    fn path_round_trip_preserves_network_and_predictions() {
        let net = tiny();
        let file = TmpFile::new("round_trip");
        write_envelope_atomic(KIND_TEST, model_fingerprint(&net), &net, &file.0).unwrap();
        let (back, fingerprint): (Cnn, u64) = read_envelope_path(KIND_TEST, &file.0).unwrap();
        assert_eq!(back, net);
        assert_eq!(fingerprint, model_fingerprint(&net));
        let channels: Vec<Tensor> = (0..2)
            .map(|c| {
                Tensor::from_vec(
                    &[16, 16],
                    (0..256).map(|i| ((i + c * 7) % 13) as f32 * 0.1).collect(),
                )
            })
            .collect();
        assert_eq!(back.forward(&channels), net.forward(&channels));
    }

    #[test]
    fn garbage_input_errors_cleanly() {
        let e = read_net("not json at all".as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::Serde(_)), "{e}");
    }

    #[test]
    fn truncated_file_errors_cleanly() {
        let buf = envelope_bytes(&tiny());
        let e = read_net(&buf[..buf.len() / 2]).unwrap_err();
        assert!(matches!(e, NnError::Serde(_)), "{e}");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let s = String::from_utf8(envelope_bytes(&tiny())).unwrap();
        // Flip a digit inside the payload without breaking the JSON.
        let pos = s.find("0.0").expect("a zero bias value is serialised");
        let mangled = format!("{}9.9{}", &s[..pos], &s[pos + 3..]);
        let e = read_net(mangled.as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::ChecksumMismatch { .. }), "{e}");
    }

    /// An envelope around `net`'s JSON with the given header fields.
    fn envelope_with(net: &Cnn, format_version: u32, kind: &str) -> String {
        let payload = serde_json::to_string(net).unwrap();
        let env = Envelope {
            magic: "dnnspmv".into(),
            format_version,
            kind: kind.into(),
            fingerprint: model_fingerprint(net),
            checksum: fnv1a64(payload.as_bytes()),
            payload,
        };
        serde_json::to_string(&env).unwrap()
    }

    #[test]
    fn future_format_version_is_rejected() {
        let buf = envelope_with(&tiny(), FORMAT_VERSION + 1, KIND_TEST);
        let e = read_net(buf.as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::FormatVersion { .. }), "{e}");
    }

    #[test]
    fn older_format_version_is_rejected() {
        // A v1-era artefact was trained against the 7-format universe;
        // its class labels would silently change meaning if loaded, so
        // it must fail typed, not parse.
        let buf = envelope_with(&tiny(), FORMAT_VERSION - 1, KIND_TEST);
        let e = read_net(buf.as_bytes()).unwrap_err();
        assert!(
            matches!(
                e,
                NnError::FormatVersion {
                    found: 1,
                    supported: FORMAT_VERSION
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let buf = envelope_with(&tiny(), FORMAT_VERSION, KIND_CHECKPOINT);
        let e = read_net(buf.as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::WrongKind { .. }), "{e}");
    }

    #[test]
    fn shape_mangled_network_errors_instead_of_panicking() {
        // Mangle the struct (declared channel count no longer matches
        // the tower layout) and save it with a *valid* checksum, so the
        // corruption can only be caught by structural validation.
        let mut net = tiny();
        net.num_channels = 5;
        let file = TmpFile::new("shape_mangled");
        save_checkpoint(&checkpoint_of(net), 0, &file.0).unwrap();
        let e = load_checkpoint(&file.0).unwrap_err();
        assert!(matches!(e, NnError::InvalidModel(_)), "{e}");
    }

    #[test]
    fn tensor_shape_data_mismatch_is_caught_at_load() {
        // Rewrite a weight tensor's declared shape inside the payload
        // (a corruption serde's derived Deserialize accepts verbatim)
        // and recompute the checksum: only Cnn::validate can catch it.
        let payload = serde_json::to_string(&checkpoint_of(tiny())).unwrap();
        let needle = "\"shape\":[4,2,3,3]";
        assert!(payload.contains(needle), "expected a conv weight shape");
        let mangled = payload.replacen(needle, "\"shape\":[4,2,3,4]", 1);
        let env = Envelope {
            magic: "dnnspmv".into(),
            format_version: FORMAT_VERSION,
            kind: KIND_CHECKPOINT.into(),
            fingerprint: 0,
            checksum: fnv1a64(mangled.as_bytes()),
            payload: mangled,
        };
        let file = TmpFile::new("tensor_shape");
        std::fs::write(&file.0, serde_json::to_string(&env).unwrap()).unwrap();
        let e = load_checkpoint(&file.0).unwrap_err();
        assert!(matches!(e, NnError::InvalidModel(_)), "{e}");
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
