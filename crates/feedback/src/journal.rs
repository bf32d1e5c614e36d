//! Crash-safe append-only feedback journal.
//!
//! The journal is the loop's source of truth: every sampled request
//! lands here as one self-describing record, and the trainer replays it
//! later — possibly after a crash mid-append. The discipline mirrors
//! the PR 3 artefact envelopes (checksummed payloads, atomic renames),
//! adapted from one-document files to an append-only log:
//!
//! * **Framing** — each record is `[u32 LE payload length]`
//!   `[u64 LE FNV-1a64(payload)]` `[JSON payload]`. The checksum uses
//!   the same `dnnspmv-fingerprint` hasher the envelopes pin.
//! * **Segments** — records append to `segment-NNNNNN.dnj`; when a
//!   segment exceeds the size budget the writer rotates to the next
//!   index. New segments are created atomically (magic written to a
//!   temp file, fsynced, renamed into place, directory fsynced), so a
//!   crash during rotation never leaves a half-named segment.
//! * **Torn tails** — a crash mid-append leaves a trailing partial
//!   frame. [`replay`] stops a segment at the first incomplete frame
//!   and reports the bytes it ignored; [`JournalWriter::open`]
//!   truncates the same tail so new records never append behind
//!   garbage, and a write that fails part-way is cut off at once by the
//!   writer itself (see [`JournalWriter::append`]). A *complete* frame
//!   whose checksum mismatches (bit rot) is skipped and counted —
//!   framing is intact, so later records are still recovered.
//!
//! Replay never panics on any byte sequence: every malformed shape maps
//! to a counter in [`ReplayReport`].

use crate::error::FeedbackError;
use crate::record::FeedbackRecord;
use dnnspmv_fingerprint::fnv1a64;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"dnnspmvJ";

/// Hard cap on one record's payload; a declared length beyond this is
/// treated as a torn tail (the length field itself is garbage).
pub const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of frame header: payload length + checksum.
const HEADER_BYTES: u64 = 12;

/// Journal tuning.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes (checked after each append, so one record may overshoot).
    pub max_segment_bytes: u64,
    /// `fsync` the segment after every append. Off by default: the
    /// loop tolerates losing the last few records on power failure,
    /// and per-record fsync would gate the sampler lane on disk
    /// latency. Rotation always fsyncs regardless.
    pub sync_each_append: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self {
            max_segment_bytes: 16 * 1024 * 1024,
            sync_each_append: false,
        }
    }
}

fn segment_name(index: u64) -> String {
    format!("segment-{index:06}.dnj")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("segment-")?.strip_suffix(".dnj")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Sorted `(index, path)` list of the segments present in `dir`.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, FeedbackError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_segment_name) {
            found.push((idx, entry.path()));
        }
    }
    found.sort();
    Ok(found)
}

/// Creates `dir/segment_name(index)` atomically: magic goes to a temp
/// file first, which is fsynced and renamed into place; the directory
/// is fsynced so the rename itself survives a crash.
fn create_segment_atomic(dir: &Path, index: u64) -> Result<PathBuf, FeedbackError> {
    let final_path = dir.join(segment_name(index));
    let tmp_path = dir.join(format!(".{}.tmp", segment_name(index)));
    {
        let mut f = File::create(&tmp_path)?;
        f.write_all(SEGMENT_MAGIC)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(final_path)
}

/// Walks `bytes` (a segment's contents after the magic) and returns the
/// byte length of the intact-frame prefix — the offset the writer can
/// safely append at. Complete frames with bad checksums still count as
/// intact here: their framing is trustworthy, and replay will skip
/// them individually.
fn intact_prefix_len(bytes: &[u8]) -> u64 {
    let mut off = 0usize;
    loop {
        let rest = &bytes[off..];
        if rest.len() < HEADER_BYTES as usize {
            return off as u64;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_RECORD_BYTES || rest.len() < HEADER_BYTES as usize + len {
            return off as u64;
        }
        off += HEADER_BYTES as usize + len;
    }
}

/// What one [`replay`] pass recovered and what it had to discard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Segments visited (torn ones included).
    pub segments: usize,
    /// Records recovered.
    pub records: usize,
    /// Complete frames dropped for a checksum mismatch or an
    /// undecodable payload (bit rot within a record).
    pub corrupt_records: usize,
    /// Trailing bytes ignored as torn (crash mid-append), summed over
    /// all segments.
    pub torn_tail_bytes: u64,
    /// Segments whose header never checked out (missing or wrong
    /// magic); their contents are not trusted at all.
    pub torn_segments: usize,
}

/// Replays every segment in `dir` in index order, recovering all intact
/// records. Never panics and never errors on malformed *content* —
/// only on filesystem failures reaching the files at all. A missing
/// directory replays as empty (the loop simply has not run yet).
pub fn replay(dir: &Path) -> Result<(Vec<FeedbackRecord>, ReplayReport), FeedbackError> {
    let mut report = ReplayReport::default();
    let mut records = Vec::new();
    if !dir.exists() {
        return Ok((records, report));
    }
    for (_, path) in list_segments(dir)? {
        report.segments += 1;
        let bytes = fs::read(&path)?;
        if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            report.torn_segments += 1;
            continue;
        }
        let body = &bytes[SEGMENT_MAGIC.len()..];
        let mut off = 0usize;
        loop {
            let rest = &body[off..];
            if rest.is_empty() {
                break;
            }
            if rest.len() < HEADER_BYTES as usize {
                report.torn_tail_bytes += rest.len() as u64;
                break;
            }
            let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
            let sum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
            if len > MAX_RECORD_BYTES || rest.len() < HEADER_BYTES as usize + len as usize {
                report.torn_tail_bytes += rest.len() as u64;
                break;
            }
            let payload = &rest[HEADER_BYTES as usize..HEADER_BYTES as usize + len as usize];
            off += HEADER_BYTES as usize + len as usize;
            if fnv1a64(payload) != sum {
                report.corrupt_records += 1;
                continue;
            }
            // The vendored serde_json parses from `&str`; a checksum-
            // valid payload that is not UTF-8 still counts as corrupt.
            match std::str::from_utf8(payload)
                .ok()
                .and_then(|s| serde_json::from_str::<FeedbackRecord>(s).ok())
            {
                Some(r) => {
                    records.push(r);
                    report.records += 1;
                }
                None => report.corrupt_records += 1,
            }
        }
    }
    Ok((records, report))
}

/// Append handle over the journal directory.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    cfg: JournalConfig,
    file: File,
    segment_index: u64,
    /// Bytes in the current segment, magic included.
    segment_bytes: u64,
    /// Torn-tail bytes truncated while opening (0 on a clean open).
    repaired_bytes: u64,
    /// A failed write left bytes past `segment_bytes` that could not be
    /// truncated; appends fail until a rotate or reopen.
    poisoned: bool,
}

impl JournalWriter {
    /// Opens the journal at `dir` (created if absent), resuming the
    /// highest-numbered segment. A torn tail left by a crash
    /// mid-append is truncated away before the first new append; the
    /// number of repaired bytes is observable via
    /// [`JournalWriter::repaired_bytes`].
    pub fn open(dir: &Path, cfg: JournalConfig) -> Result<Self, FeedbackError> {
        fs::create_dir_all(dir)?;
        let segments = list_segments(dir)?;
        let (segment_index, path, fresh) = match segments.last() {
            Some((idx, path)) => (*idx, path.clone(), false),
            None => (0, create_segment_atomic(dir, 0)?, true),
        };
        let mut repaired = 0u64;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let keep = if !fresh {
            if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
                return Err(FeedbackError::Journal(format!(
                    "segment {} has no valid header; refusing to append to it",
                    path.display()
                )));
            }
            let body_keep = intact_prefix_len(&bytes[SEGMENT_MAGIC.len()..]);
            let keep = SEGMENT_MAGIC.len() as u64 + body_keep;
            repaired = bytes.len() as u64 - keep;
            keep
        } else {
            bytes.len() as u64
        };
        if repaired > 0 {
            file.set_len(keep)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(keep))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            file,
            segment_index,
            segment_bytes: keep,
            repaired_bytes: repaired,
            poisoned: false,
        })
    }

    /// Torn-tail bytes truncated when this writer opened.
    pub fn repaired_bytes(&self) -> u64 {
        self.repaired_bytes
    }

    /// Index of the segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Appends one record (length-prefixed, checksummed), rotating to a
    /// fresh segment afterwards if the size budget is exceeded.
    ///
    /// A write that fails part-way (a full disk mid-frame) costs only its
    /// own record: the segment is truncated back to its last good length
    /// and the writer seeks there, so every record acknowledged before or
    /// after it replays. If that truncate fails too, the writer is
    /// poisoned: every append returns [`FeedbackError::Io`] until a
    /// [`Self::rotate`] succeeds or the journal is reopened (which cuts
    /// the torn tail).
    ///
    /// With [`JournalConfig::sync_each_append`], a failed fsync returns
    /// `Err` after the frame was written: the record is not known to be
    /// durable, but it is in the segment, and replay of a journal that
    /// did not crash reads it.
    pub fn append(&mut self, record: &FeedbackRecord) -> Result<(), FeedbackError> {
        if self.poisoned {
            return Err(FeedbackError::Io(std::io::Error::other(
                "journal segment ends in a torn frame that could not be cut; rotate or reopen",
            )));
        }
        let payload = serde_json::to_string(record)
            .map_err(|e| FeedbackError::Serde(e.to_string()))?
            .into_bytes();
        if payload.len() as u64 > MAX_RECORD_BYTES as u64 {
            return Err(FeedbackError::Journal(format!(
                "record payload of {} bytes exceeds the {} byte cap",
                payload.len(),
                MAX_RECORD_BYTES
            )));
        }
        // One contiguous write per record: a crash can tear the frame
        // (repaired on replay/open) but can never interleave frames.
        let mut frame = Vec::with_capacity(HEADER_BYTES as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Err(e) = self.write_frame(&frame) {
            let keep = self.segment_bytes;
            let cut = self.file.set_len(keep);
            self.poisoned = cut
                .and_then(|()| self.file.seek(SeekFrom::Start(keep)))
                .is_err();
            return Err(e);
        }
        self.segment_bytes += frame.len() as u64;
        if self.cfg.sync_each_append {
            dnnspmv_chaos::failpoint!(
                dnnspmv_chaos::sites::JOURNAL_FSYNC,
                Err(FeedbackError::Io(std::io::Error::other(
                    "chaos: injected fsync failure on journal append"
                )))
            );
            self.file.sync_all()?;
        }
        if self.segment_bytes > self.cfg.max_segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn write_frame(&mut self, frame: &[u8]) -> Result<(), FeedbackError> {
        #[cfg(feature = "chaos")]
        if dnnspmv_chaos::should_fail(dnnspmv_chaos::sites::JOURNAL_APPEND) {
            // ENOSPC mid-frame: half the frame lands, then the device is
            // full, as a real short write leaves it.
            self.file.write_all(&frame[..frame.len() / 2])?;
            return Err(FeedbackError::StorageFull(
                "chaos: injected ENOSPC half-way through a journal frame".into(),
            ));
        }
        self.file.write_all(frame)?;
        self.file.flush()?;
        Ok(())
    }

    /// Forces the current segment to stable storage.
    pub fn sync(&mut self) -> Result<(), FeedbackError> {
        dnnspmv_chaos::failpoint!(
            dnnspmv_chaos::sites::JOURNAL_FSYNC,
            Err(FeedbackError::Io(std::io::Error::other(
                "chaos: injected fsync failure on journal sync"
            )))
        );
        self.file.sync_all()?;
        Ok(())
    }

    /// Seals the current segment (fsync) and starts the next one
    /// atomically.
    pub fn rotate(&mut self) -> Result<(), FeedbackError> {
        // Injected before any state changes: a failed rotation keeps
        // the writer appending to the current (oversized) segment,
        // which replay handles like any other segment.
        dnnspmv_chaos::failpoint!(
            dnnspmv_chaos::sites::JOURNAL_ROTATE,
            Err(FeedbackError::StorageFull(
                "chaos: injected storage-full on segment rotation".into()
            ))
        );
        self.file.sync_all()?;
        self.segment_index += 1;
        let path = create_segment_atomic(&self.dir, self.segment_index)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.segment_bytes = SEGMENT_MAGIC.len() as u64;
        self.poisoned = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample_record;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dnnspmv-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trips_records_across_rotation() {
        let dir = tmp_dir("rot");
        let mut w = JournalWriter::open(
            &dir,
            JournalConfig {
                max_segment_bytes: 1, // rotate after every record
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            w.append(&sample_record(i)).unwrap();
        }
        assert!(w.segment_index() >= 4, "rotation must have happened");
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(report.records, 5);
        assert_eq!(report.corrupt_records, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        assert!(report.segments >= 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_each_append_round_trips_records_across_rotation() {
        let dir = tmp_dir("sync");
        let mut w = JournalWriter::open(
            &dir,
            JournalConfig {
                max_segment_bytes: 1,
                sync_each_append: true,
            },
        )
        .unwrap();
        for i in 0..4 {
            w.append(&sample_record(i)).unwrap();
        }
        assert_eq!(w.segment_index(), 4, "one rotation per record");
        drop(w);
        let (records, report) = replay(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            report,
            ReplayReport {
                segments: 5,
                records: 4,
                ..ReplayReport::default()
            }
        );
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn reopen_resumes_the_last_segment() {
        let dir = tmp_dir("resume");
        {
            let mut w = JournalWriter::open(&dir, JournalConfig::default()).unwrap();
            w.append(&sample_record(0)).unwrap();
        }
        {
            let mut w = JournalWriter::open(&dir, JournalConfig::default()).unwrap();
            assert_eq!(w.repaired_bytes(), 0);
            w.append(&sample_record(1)).unwrap();
        }
        let (records, report) = replay(&dir).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(report.segments, 1, "no spurious rotation on reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cut_poisons_the_writer_until_a_rotate() {
        let dir = tmp_dir("poison");
        let mut w = JournalWriter::open(&dir, JournalConfig::default()).unwrap();
        w.append(&sample_record(0)).unwrap();
        // A read-only handle on the segment: the write fails, and so does
        // cutting the segment back.
        w.file = File::open(dir.join(segment_name(0))).unwrap();
        assert!(matches!(
            w.append(&sample_record(1)),
            Err(FeedbackError::Io(_))
        ));
        match w.append(&sample_record(2)) {
            Err(FeedbackError::Io(e)) => assert!(e.to_string().contains("rotate or reopen"), "{e}"),
            other => panic!("a poisoned writer must refuse with Io, got {other:?}"),
        }
        w.rotate().unwrap();
        w.append(&sample_record(3)).unwrap();
        drop(w);
        let (records, report) = replay(&dir).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(report.corrupt_records + report.torn_segments, 0);
    }

    #[test]
    fn missing_directory_replays_empty() {
        let dir = tmp_dir("absent");
        let (records, report) = replay(&dir).unwrap();
        assert!(records.is_empty());
        assert_eq!(report, ReplayReport::default());
    }
}
