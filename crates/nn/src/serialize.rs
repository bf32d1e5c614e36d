//! Model persistence: versioned, checksummed JSON envelopes.
//!
//! The trained selector is a one-time artefact per platform (the paper
//! reports ~27 min of training), so models are saved and shipped; JSON
//! keeps the format debuggable and dependency-light. Every artefact —
//! model, checkpoint, selector — is wrapped in an `Envelope`:
//!
//! ```text
//! { "magic": "dnnspmv",
//!   "format_version": 2,        // bumped on layout changes
//!   "kind": "cnn-model",        // what the payload is
//!   "fingerprint": <u64>,       // structural/config hash
//!   "checksum": <u64>,          // FNV-1a over the payload bytes
//!   "payload": "<inner JSON>" }
//! ```
//!
//! Loading checks, in order: envelope JSON → kind tag → format version
//! → payload checksum → payload JSON → structural validation
//! ([`Cnn::validate`]) → fingerprint. Each failure maps to a distinct
//! [`NnError`] variant; no panic is reachable from file contents.
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

/// Envelope kind tag for whole networks.
pub const KIND_MODEL: &str = "cnn-model";

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
/// contract. Stored in the model envelope and re-derived at load time,
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

/// Serialises a network to a writer as an enveloped JSON artefact.
pub fn save_model<W: Write>(net: &Cnn, w: W) -> Result<(), NnError> {
    write_envelope(KIND_MODEL, model_fingerprint(net), net, w)
}

/// Deserialises and validates a network from a reader.
///
/// Corrupted, truncated or shape-mangled files yield a typed `Err`;
/// a returned network has passed [`Cnn::validate`] and is safe to run
/// inference on without hitting the forward paths' shape asserts.
pub fn load_model<R: Read>(r: R) -> Result<Cnn, NnError> {
    let (net, fingerprint): (Cnn, u64) = read_envelope(KIND_MODEL, r)?;
    net.validate().map_err(NnError::InvalidModel)?;
    let derived = model_fingerprint(&net);
    if derived != fingerprint {
        return Err(NnError::ConfigMismatch(format!(
            "model fingerprint {fingerprint:#018x} does not match its structure ({derived:#018x})"
        )));
    }
    Ok(net)
}

/// Saves a network to a file path (atomic write-and-rename).
pub fn save_model_path<P: AsRef<Path>>(net: &Cnn, path: P) -> Result<(), NnError> {
    write_envelope_atomic(KIND_MODEL, model_fingerprint(net), net, path)
}

/// Loads a network from a file path.
pub fn load_model_path<P: AsRef<Path>>(path: P) -> Result<Cnn, NnError> {
    let f = std::fs::File::open(path)?;
    load_model(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::{build_cnn, CnnConfig, Merging};
    use crate::tensor::Tensor;

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

    #[test]
    fn round_trip_preserves_network_exactly() {
        let net = tiny();
        let mut buf = Vec::new();
        save_model(&net, &mut buf).unwrap();
        let back = load_model(buf.as_slice()).unwrap();
        assert_eq!(back, net);
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let net = tiny();
        let channels: Vec<Tensor> = (0..2)
            .map(|c| {
                Tensor::from_vec(
                    &[16, 16],
                    (0..256).map(|i| ((i + c * 7) % 13) as f32 * 0.1).collect(),
                )
            })
            .collect();
        let mut buf = Vec::new();
        save_model(&net, &mut buf).unwrap();
        let back = load_model(buf.as_slice()).unwrap();
        assert_eq!(back.forward(&channels), net.forward(&channels));
    }

    #[test]
    fn path_round_trip() {
        let net = tiny();
        let dir = std::env::temp_dir().join("dnnspmv_nn_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("model.json");
        save_model_path(&net, &p).unwrap();
        let back = load_model_path(&p).unwrap();
        assert_eq!(back, net);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn garbage_input_errors_cleanly() {
        let e = load_model("not json at all".as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::Serde(_)), "{e}");
    }

    #[test]
    fn truncated_file_errors_cleanly() {
        let net = tiny();
        let mut buf = Vec::new();
        save_model(&net, &mut buf).unwrap();
        let e = load_model(&buf[..buf.len() / 2]).unwrap_err();
        assert!(matches!(e, NnError::Serde(_)), "{e}");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let net = tiny();
        let mut buf = Vec::new();
        save_model(&net, &mut buf).unwrap();
        // Flip a digit inside the payload without breaking the JSON.
        let s = String::from_utf8(buf).unwrap();
        let pos = s.find("0.0").expect("a zero bias value is serialised");
        let mangled = format!("{}9.9{}", &s[..pos], &s[pos + 3..]);
        let e = load_model(mangled.as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::ChecksumMismatch { .. }), "{e}");
    }

    #[test]
    fn future_format_version_is_rejected() {
        let net = tiny();
        let payload = serde_json::to_string(&net).unwrap();
        let env = Envelope {
            magic: "dnnspmv".into(),
            format_version: FORMAT_VERSION + 1,
            kind: KIND_MODEL.into(),
            fingerprint: model_fingerprint(&net),
            checksum: fnv1a64(payload.as_bytes()),
            payload,
        };
        let buf = serde_json::to_string(&env).unwrap();
        let e = load_model(buf.as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::FormatVersion { .. }), "{e}");
    }

    #[test]
    fn older_format_version_is_rejected() {
        // A v1-era artefact was trained against the 7-format universe;
        // its class labels would silently change meaning if loaded, so
        // it must fail typed, not parse.
        let net = tiny();
        let payload = serde_json::to_string(&net).unwrap();
        let env = Envelope {
            magic: "dnnspmv".into(),
            format_version: FORMAT_VERSION - 1,
            kind: KIND_MODEL.into(),
            fingerprint: model_fingerprint(&net),
            checksum: fnv1a64(payload.as_bytes()),
            payload,
        };
        let buf = serde_json::to_string(&env).unwrap();
        let e = load_model(buf.as_bytes()).unwrap_err();
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
        let net = tiny();
        let payload = serde_json::to_string(&net).unwrap();
        let env = Envelope {
            magic: "dnnspmv".into(),
            format_version: FORMAT_VERSION,
            kind: "train-checkpoint".into(),
            fingerprint: model_fingerprint(&net),
            checksum: fnv1a64(payload.as_bytes()),
            payload,
        };
        let buf = serde_json::to_string(&env).unwrap();
        let e = load_model(buf.as_bytes()).unwrap_err();
        assert!(matches!(e, NnError::WrongKind { .. }), "{e}");
    }

    #[test]
    fn shape_mangled_model_errors_instead_of_panicking() {
        // Mangle the struct (declared channel count no longer matches
        // the tower layout), re-envelope with a *valid* checksum so the
        // corruption can only be caught by structural validation.
        let mut net = tiny();
        net.num_channels = 5;
        let mut buf = Vec::new();
        save_model(&net, &mut buf).unwrap();
        let e = load_model(buf.as_slice()).unwrap_err();
        assert!(matches!(e, NnError::InvalidModel(_)), "{e}");
    }

    #[test]
    fn tensor_shape_data_mismatch_is_caught_at_load() {
        // Rewrite a weight tensor's declared shape inside the payload
        // (a corruption serde's derived Deserialize accepts verbatim)
        // and recompute the checksum: only Cnn::validate can catch it.
        let net = tiny();
        let payload = serde_json::to_string(&net).unwrap();
        let needle = "\"shape\":[4,2,3,3]";
        assert!(payload.contains(needle), "expected a conv weight shape");
        let mangled = payload.replacen(needle, "\"shape\":[4,2,3,4]", 1);
        let env = Envelope {
            magic: "dnnspmv".into(),
            format_version: FORMAT_VERSION,
            kind: KIND_MODEL.into(),
            fingerprint: model_fingerprint(&net),
            checksum: fnv1a64(mangled.as_bytes()),
            payload: mangled,
        };
        let buf = serde_json::to_string(&env).unwrap();
        let e = load_model(buf.as_bytes()).unwrap_err();
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
