//! Crash-safe append-only log framing, with quarantine-based repair.
//!
//! A log file is an 8-byte magic followed by a sequence of frames:
//!
//! ```text
//! [len: u32 LE] [crc: u64 LE] [payload: len bytes]
//! ```
//!
//! `crc` is FNV-1a 64 over the payload. The only mutation ever applied
//! to a live log is appending whole frames, so a *crash* can only leave
//! a torn tail — but disks also rot and writes can be silently
//! corrupted (see [`crate::io::FaultyIo`]), so [`open_log`] no longer
//! assumes damage implies tail. The scan walks frame by frame; on a bad
//! frame it searches forward for the next position that parses as an
//! intact frame (the checksum makes a false resync astronomically
//! unlikely) and **quarantines** the damaged span into a
//! `campaign.quarantine` sidecar instead of discarding everything after
//! it. Only when no resync point exists is the remainder treated as a
//! torn tail and truncated. Either repair is safe because the log is a
//! pure accelerator: campaigns re-derive any lost measurement
//! deterministically, so a quarantined frame costs a re-measurement,
//! never a wrong answer.
//!
//! The 8-byte magic gets the same treatment: a torn magic (a crash
//! during a new log's first write) resets the log, and a magic one bit
//! off (a silent flip of that write) is rewritten, tmp + rename, with
//! every frame kept — see [`classify_header`]. Any other prefix is not a
//! campaign log and is refused.
//!
//! The log and its sidecar are a store's whole on-disk format.

use std::path::Path;

use crate::io::{StoreFile, StoreIo};
use crate::record::StoreRecord;
use crate::{fnv1a64, StoreError};

/// Magic prefix of the write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"OASTWAL1";
/// Magic prefix of the quarantine sidecar.
pub const QUARANTINE_MAGIC: &[u8; 8] = b"OASTQAR1";

/// Bytes of frame overhead preceding each payload (u32 length + u64 crc).
pub const FRAME_HEADER_LEN: usize = 12;

/// What a log file's leading bytes say about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Header {
    /// Exactly [`WAL_MAGIC`].
    Intact,
    /// Shorter than the magic and a prefix of it (empty included): a
    /// crash tore a new log's first write, so nothing else was written.
    Torn,
    /// The magic with exactly one bit flipped: a silently corrupted first
    /// write. The frames after it are read as usual and the magic is
    /// rewritten on repair.
    OneBitOff,
    /// Anything else: not a campaign log.
    Foreign,
}

/// Classifies a log file's leading bytes — the one magic check that
/// [`open_log`] and [`crate::fsck`] share.
#[must_use]
pub fn classify_header(bytes: &[u8]) -> Header {
    let Some(head) = bytes.get(..WAL_MAGIC.len()) else {
        return if WAL_MAGIC.starts_with(bytes) {
            Header::Torn
        } else {
            Header::Foreign
        };
    };
    let flipped: u32 = head
        .iter()
        .zip(WAL_MAGIC)
        .map(|(a, b)| (a ^ b).count_ones())
        .sum();
    match flipped {
        0 => Header::Intact,
        1 => Header::OneBitOff,
        _ => Header::Foreign,
    }
}

/// The error for a file that is not a campaign log.
pub(crate) fn bad_magic(path: &Path) -> StoreError {
    StoreError::Corrupt(format!(
        "{} is not a campaign log (bad magic)",
        path.display()
    ))
}

/// Refuse frames above this size; the largest legitimate record is a
/// measurement with a few thousand contexts, well under a mebibyte.
const MAX_FRAME_LEN: usize = 1 << 20;

fn io_err(context: &str, err: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {err}"))
}

/// Encodes one record as a complete frame (header + payload), ready to be
/// appended with a single write.
#[must_use]
pub fn encode_frame(record: &StoreRecord) -> Vec<u8> {
    let payload = record.encode();
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Outcome of a lenient frame scan over a log body (magic stripped).
///
/// Byte ranges are offsets into the scanned body. `kept` and
/// `quarantined` partition the prefix before `tail_discarded`; records
/// appear in log order.
#[derive(Debug, Default)]
pub struct BodyScan {
    /// Records decoded from intact frames, in log order.
    pub records: Vec<StoreRecord>,
    /// Byte ranges of the intact frames backing `records`.
    pub kept: Vec<(usize, usize)>,
    /// Byte ranges of damaged-but-bounded spans: corrupt frames the scan
    /// skipped by resyncing on a later intact frame, plus intact frames
    /// whose payloads do not decode.
    pub quarantined: Vec<(usize, usize)>,
    /// Bytes past the last recoverable frame — a torn tail with no
    /// resync point after it.
    pub tail_discarded: usize,
}

impl BodyScan {
    /// Total bytes in quarantined spans.
    #[must_use]
    pub fn quarantined_bytes(&self) -> u64 {
        self.quarantined
            .iter()
            .map(|&(start, end)| (end - start) as u64)
            .sum()
    }
}

/// Leniently scans a log body: keeps every intact frame, quarantines
/// damaged spans it can bound by resyncing on a later intact frame, and
/// reports the unrecoverable tail. Never fails — damage becomes data.
#[must_use]
pub fn scan_body(bytes: &[u8]) -> BodyScan {
    let mut scan = BodyScan::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Some((Ok(record), next)) => {
                scan.records.push(record);
                scan.kept.push((pos, next));
                pos = next;
            }
            Some((Err(_), next)) => {
                // Transport-intact but undecodable: the checksum passed,
                // the record layout did not. Quarantine just this frame.
                scan.quarantined.push((pos, next));
                pos = next;
            }
            None => {
                // Damaged here. Search forward for the next offset that
                // parses as an intact frame; a 64-bit checksum makes a
                // false resync on garbage astronomically unlikely.
                let resync = (pos + 1..bytes.len()).find(|&cand| frame_at(bytes, cand).is_some());
                match resync {
                    Some(cand) => {
                        scan.quarantined.push((pos, cand));
                        pos = cand;
                    }
                    None => {
                        scan.tail_discarded = bytes.len() - pos;
                        break;
                    }
                }
            }
        }
    }
    scan
}

/// Tries to read one intact frame at `pos`. Returns `None` if the frame is
/// torn (short header, short payload, or checksum mismatch) — the caller
/// decides whether that is recoverable. Returns `Some(Err)` when the frame
/// is intact at the transport level but its payload fails to decode.
#[allow(clippy::type_complexity)]
fn frame_at(bytes: &[u8], pos: usize) -> Option<(Result<StoreRecord, StoreError>, usize)> {
    let header = bytes.get(pos..pos + FRAME_HEADER_LEN)?;
    let mut len_buf = [0u8; 4];
    len_buf.copy_from_slice(&header[..4]);
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return None;
    }
    let mut crc_buf = [0u8; 8];
    crc_buf.copy_from_slice(&header[4..12]);
    let crc = u64::from_le_bytes(crc_buf);
    let start = pos + FRAME_HEADER_LEN;
    let payload = bytes.get(start..start + len)?;
    if fnv1a64(payload) != crc {
        return None;
    }
    Some((StoreRecord::decode(payload), start + len))
}

/// An open, append-only log file.
pub struct Wal {
    file: Box<dyn StoreFile>,
}

impl Wal {
    /// Appends one record as a single frame write.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the write fails; the file is left
    /// with at worst a torn tail, which the next open truncates.
    pub fn append(&mut self, record: &StoreRecord) -> Result<(), StoreError> {
        let frame = encode_frame(record);
        self.file
            .append(&frame)
            .map_err(|e| io_err("appending log frame", &e))
    }

    /// Flushes appended frames to the OS and asks it to reach durable
    /// storage.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync().map_err(|e| io_err("syncing log", &e))
    }
}

/// What [`open_log`] found and did about damage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Damaged frames moved to the quarantine sidecar.
    pub quarantined_frames: u64,
    /// Bytes those frames occupied.
    pub quarantined_bytes: u64,
    /// Torn-tail bytes truncated off the end.
    pub tail_truncated_bytes: u64,
    /// Whether a magic one bit off ([`Header::OneBitOff`]) was rewritten.
    pub header_repaired: bool,
}

impl OpenReport {
    /// Whether the open found no damage at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined_frames == 0 && self.tail_truncated_bytes == 0 && !self.header_repaired
    }
}

/// Sidecar path for a log: `campaign.wal` → `campaign.quarantine`.
#[must_use]
pub fn quarantine_path(log_path: &Path) -> std::path::PathBuf {
    log_path.with_extension("quarantine")
}

/// Appends damaged spans to the quarantine sidecar, creating it (with
/// magic) on first use. Each entry is `[offset: u64 LE] [len: u32 LE]
/// [bytes]` where `offset` is the absolute file offset the span occupied
/// *before* repair — forensic provenance, deliberately unchecksummed
/// because the bytes are known-bad. A crash mid-append can leave the
/// sidecar empty or torn, so it is first cut back to its last whole
/// entry (to nothing when even the magic is torn): new entries never
/// land behind bytes a reader cannot parse.
///
/// # Errors
///
/// Returns [`StoreError::Io`] if the sidecar cannot be read or written.
pub fn append_quarantine(
    io: &dyn StoreIo,
    path: &Path,
    entries: &[(u64, &[u8])],
) -> Result<(), StoreError> {
    if entries.is_empty() {
        return Ok(());
    }
    let existing = match io.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("reading quarantine sidecar", &e)),
    };
    let (_, intact) = parse_quarantine(&existing);
    if intact < existing.len() {
        io.set_len(path, intact as u64)
            .map_err(|e| io_err("truncating torn quarantine sidecar", &e))?;
    }
    let mut file = io
        .open_append(path)
        .map_err(|e| io_err("opening quarantine sidecar", &e))?;
    let mut buf = Vec::new();
    if intact == 0 {
        buf.extend_from_slice(QUARANTINE_MAGIC);
    }
    for &(offset, bytes) in entries {
        buf.extend_from_slice(&offset.to_le_bytes());
        buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    file.append(&buf)
        .map_err(|e| io_err("appending quarantine entry", &e))?;
    file.sync()
        .map_err(|e| io_err("syncing quarantine sidecar", &e))
}

/// Parses sidecar bytes up to the first damage: the whole entries, and
/// the length of the intact prefix they occupy (0 when the magic itself
/// is missing or torn).
fn parse_quarantine(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, usize) {
    if bytes.len() < QUARANTINE_MAGIC.len() || &bytes[..QUARANTINE_MAGIC.len()] != QUARANTINE_MAGIC
    {
        return (Vec::new(), 0);
    }
    let mut entries = Vec::new();
    let mut pos = QUARANTINE_MAGIC.len();
    while pos + 12 <= bytes.len() {
        let mut off_buf = [0u8; 8];
        off_buf.copy_from_slice(&bytes[pos..pos + 8]);
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&bytes[pos + 8..pos + 12]);
        let len = u32::from_le_bytes(len_buf) as usize;
        let start = pos + 12;
        let Some(slice) = bytes.get(start..start + len) else {
            break;
        };
        entries.push((u64::from_le_bytes(off_buf), slice.to_vec()));
        pos = start + len;
    }
    (entries, pos)
}

/// Reads the quarantine sidecar leniently: entries up to the first
/// damage (the sidecar is itself append-only and forensic — a torn
/// sidecar tail just means less provenance). Returns `(offset, bytes)`
/// pairs; an absent sidecar is an empty list.
#[must_use]
pub fn read_quarantine(io: &dyn StoreIo, path: &Path) -> Vec<(u64, Vec<u8>)> {
    io.read(path)
        .map(|bytes| parse_quarantine(&bytes).0)
        .unwrap_or_default()
}

/// Opens (creating if absent) the write-ahead log at `path`, replaying
/// every intact frame. Damage bounded by a later intact frame is moved
/// to the quarantine sidecar and the log is rebuilt without it (tmp +
/// rename, so a crash mid-repair leaves the original log); a torn tail
/// with no later frame is truncated as before. A torn magic resets the
/// log, and a magic one bit off is rewritten by the same rebuild. The
/// report says which.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure and
/// [`StoreError::Corrupt`] if the file exists but is not a log
/// ([`Header::Foreign`]).
pub fn open_log(
    io: &dyn StoreIo,
    path: &Path,
) -> Result<(Wal, Vec<StoreRecord>, OpenReport), StoreError> {
    let bytes = match io.read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("reading log", &e)),
    };

    if bytes.is_empty() {
        let mut file = io
            .open_append(path)
            .map_err(|e| io_err("creating log", &e))?;
        file.append(WAL_MAGIC)
            .map_err(|e| io_err("writing log magic", &e))?;
        return Ok((Wal { file }, Vec::new(), OpenReport::default()));
    }
    let header = classify_header(&bytes);
    match header {
        Header::Intact | Header::OneBitOff => {}
        // A torn write of the magic itself can only happen to an empty
        // log, so nothing is lost by starting over.
        Header::Torn => {
            io.write(path, WAL_MAGIC)
                .map_err(|e| io_err("resetting log", &e))?;
            let file = io
                .open_append(path)
                .map_err(|e| io_err("reopening log", &e))?;
            let report = OpenReport {
                tail_truncated_bytes: bytes.len() as u64,
                ..OpenReport::default()
            };
            return Ok((Wal { file }, Vec::new(), report));
        }
        Header::Foreign => return Err(bad_magic(path)),
    }

    let body = &bytes[WAL_MAGIC.len()..];
    let scan = scan_body(body);
    let report = OpenReport {
        quarantined_frames: scan.quarantined.len() as u64,
        quarantined_bytes: scan.quarantined_bytes(),
        tail_truncated_bytes: scan.tail_discarded as u64,
        header_repaired: header == Header::OneBitOff,
    };

    if !scan.quarantined.is_empty() || report.header_repaired {
        // Sidecar first: if the rebuild below is interrupted the original
        // log is still in place and the next open re-quarantines (the
        // sidecar may then hold duplicate entries, which is acceptable
        // for a forensic artifact).
        let entries: Vec<(u64, &[u8])> = scan
            .quarantined
            .iter()
            .map(|&(start, end)| ((WAL_MAGIC.len() + start) as u64, &body[start..end]))
            .collect();
        append_quarantine(io, &quarantine_path(path), &entries)?;
        let mut rebuilt = Vec::with_capacity(bytes.len());
        rebuilt.extend_from_slice(WAL_MAGIC);
        for &(start, end) in &scan.kept {
            rebuilt.extend_from_slice(&body[start..end]);
        }
        let tmp = path.with_extension("wal.tmp");
        io.write(&tmp, &rebuilt)
            .map_err(|e| io_err("writing repaired log", &e))?;
        io.rename(&tmp, path)
            .map_err(|e| io_err("publishing repaired log", &e))?;
    } else if scan.tail_discarded > 0 {
        let keep = (bytes.len() - scan.tail_discarded) as u64;
        io.set_len(path, keep)
            .map_err(|e| io_err("truncating torn log tail", &e))?;
    }

    let file = io
        .open_append(path)
        .map_err(|e| io_err("reopening log", &e))?;
    Ok((Wal { file }, scan.records, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;
    use crate::record::MeasurementRecord;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("optassign-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records(n: usize) -> Vec<StoreRecord> {
        (0..n)
            .map(|i| {
                StoreRecord::Measurement(MeasurementRecord {
                    campaign: 7,
                    sequence: 0,
                    slot: i as u64,
                    key: 0x9E37_79B9 ^ i as u64,
                    value: i as f64 * 1.5e6,
                    attempts: 1,
                    retries: 0,
                    redrawn: 0,
                    contexts: vec![i as u32, i as u32 + 1],
                })
            })
            .collect()
    }

    fn write_log(path: &std::path::Path, records: &[StoreRecord]) {
        let (mut wal, existing, report) = open_log(&RealIo, path).unwrap();
        assert!(existing.is_empty());
        assert!(report.is_clean());
        for r in records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
    }

    #[test]
    fn roundtrip_and_reopen() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("campaign.wal");
        let records = sample_records(5);
        write_log(&path, &records);
        let (_, replayed, report) = open_log(&RealIo, &path).unwrap();
        assert_eq!(replayed, records);
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_at_every_byte() {
        let dir = temp_dir("torn");
        let path = dir.join("campaign.wal");
        let records = sample_records(3);
        write_log(&path, &records);
        let full = std::fs::read(&path).unwrap();
        let last_frame = encode_frame(&records[2]);
        let boundary = full.len() - last_frame.len();
        // Every cut inside the final frame must recover the first two
        // records; a cut at the boundary recovers them trivially.
        for cut in boundary..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, replayed, report) = open_log(&RealIo, &path).unwrap();
            assert_eq!(replayed, records[..2], "cut at byte {cut}");
            assert_eq!(report.quarantined_frames, 0, "cut at byte {cut}");
            assert_eq!(report.tail_truncated_bytes as usize, cut - boundary);
            let len_after = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len_after as usize, boundary, "cut at byte {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_magic_resets_cleanly() {
        let dir = temp_dir("magic");
        let path = dir.join("campaign.wal");
        std::fs::write(&path, &WAL_MAGIC[..3]).unwrap();
        let (_, replayed, report) = open_log(&RealIo, &path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(
            report.tail_truncated_bytes, 3,
            "a torn magic is a torn tail"
        );
        // And a non-log file is rejected rather than clobbered.
        let other = dir.join("not-a-log");
        std::fs::write(&other, b"hello world, this is text").unwrap();
        assert!(open_log(&RealIo, &other).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_interior_frame_is_quarantined_not_fatal() {
        let dir = temp_dir("interior");
        let path = dir.join("campaign.wal");
        let records = sample_records(3);
        write_log(&path, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the first frame: its checksum fails, the
        // scan resyncs on frame 2, and the damaged span is quarantined —
        // the two later records survive where the old truncate-at-first-
        // damage policy would have dropped them.
        let flip_at = WAL_MAGIC.len() + FRAME_HEADER_LEN + 2;
        bytes[flip_at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed, report) = open_log(&RealIo, &path).unwrap();
        assert_eq!(replayed, records[1..]);
        assert_eq!(report.quarantined_frames, 1);
        assert_eq!(
            report.quarantined_bytes as usize,
            encode_frame(&records[0]).len()
        );
        // The sidecar holds the damaged bytes at their original offset.
        let entries = read_quarantine(&RealIo, &quarantine_path(&path));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, WAL_MAGIC.len() as u64);
        assert_eq!(entries[0].1.len(), encode_frame(&records[0]).len());
        // The repaired log reopens clean with the same records.
        let (_, replayed, report) = open_log(&RealIo, &path).unwrap();
        assert_eq!(replayed, records[1..]);
        assert!(report.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_repair_is_idempotent_and_appends_new_damage() {
        let dir = temp_dir("requar");
        let path = dir.join("campaign.wal");
        let records = sample_records(4);
        write_log(&path, &records);
        let frame_len = encode_frame(&records[0]).len();
        // Damage frame 1, repair, then damage (new) frame 2, repair again.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[WAL_MAGIC.len() + frame_len + FRAME_HEADER_LEN + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed, _) = open_log(&RealIo, &path).unwrap();
        assert_eq!(replayed.len(), 3);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[WAL_MAGIC.len() + frame_len + FRAME_HEADER_LEN + 1] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed, _) = open_log(&RealIo, &path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(read_quarantine(&RealIo, &quarantine_path(&path)).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_sidecar_is_cut_back_before_the_next_entry() {
        let dir = temp_dir("torn-sidecar");
        let path = dir.join("campaign.quarantine");
        append_quarantine(&RealIo, &path, &[(8, b"first")]).unwrap();
        let whole = std::fs::read(&path).unwrap();
        // Empty, torn in the magic, torn in the entry, and intact.
        for cut in [0, 3, whole.len() - 2, whole.len()] {
            std::fs::write(&path, &whole[..cut]).unwrap();
            append_quarantine(&RealIo, &path, &[(40, b"second")]).unwrap();
            let mut expected = vec![(40u64, b"second".to_vec())];
            if cut == whole.len() {
                expected.insert(0, (8, b"first".to_vec()));
            }
            assert_eq!(read_quarantine(&RealIo, &path), expected, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_record_in_intact_frame_is_quarantined() {
        let dir = temp_dir("undecodable");
        let path = dir.join("campaign.wal");
        let good = sample_records(1);
        // A checksum-valid frame whose payload has an unknown tag.
        let bogus_payload = vec![0xEEu8, 1, 2, 3];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(bogus_payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&bogus_payload).to_le_bytes());
        frame.extend_from_slice(&bogus_payload);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&encode_frame(&good[0]));
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed, report) = open_log(&RealIo, &path).unwrap();
        assert_eq!(replayed, good);
        assert_eq!(report.quarantined_frames, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
