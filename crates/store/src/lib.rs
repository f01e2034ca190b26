//! # optassign-store — durable campaign store
//!
//! Measurement campaigns on real hardware are expensive: each sample
//! costs seconds to minutes of machine time, and the iterative algorithm
//! of the paper's §5.3 runs many rounds of them. This crate makes those
//! campaigns durable with two pieces, both dependency-free:
//!
//! 1. **A crash-safe write-ahead measurement log** ([`wal`]). Every
//!    measurement is journaled as one checksummed frame the moment it
//!    completes. The only mutation is appending whole frames; a torn
//!    tail is truncated on reopen, and interior damage (bit rot, a
//!    corrupted write) is moved to a quarantine sidecar while every
//!    intact frame — before *and after* the damage — is kept.
//! 2. **Checkpoint/resume** ([`CampaignStore::lookup_slot`]). The core
//!    layer's `_persistent` entry points re-run a campaign from its seed
//!    and substitute journaled results for slots already measured —
//!    deterministic replay keyed by `(campaign, sequence, slot)`, so a
//!    resumed campaign is bit-identical to an uninterrupted one at any
//!    worker count, and to a run with no store at all. The log is the
//!    only record of a measurement, and a slot is only ever resolved
//!    from its own record.
//!
//! A third piece makes failure a first-class citizen:
//!
//! 3. **Injectable I/O** ([`io`]). Every byte the store persists flows
//!    through a [`io::StoreIo`] handle; [`io::FaultyIo`] injects a
//!    seeded, deterministic schedule of storage faults so each recovery
//!    path above is exercised reproducibly (see `chaos_soak`), and
//!    [`fsck`] checks and repairs a store offline.
//!
//! ## Failure policy
//!
//! The store is a pure accelerator: losing a journaled record costs a
//! deterministic re-measurement, never a wrong answer. Runtime I/O
//! failures are therefore swallowed and counted ([`CampaignStore::io_errors`])
//! rather than propagated into campaign control flow, mirroring how the
//! observability layer treats recorder failures. Damage found on open is
//! likewise repaired and *reported* — through [`CampaignStore::open_report`]
//! and the obs counters `store_tail_truncated_total` /
//! `store_frames_quarantined_total` — never silently ignored.

pub mod io;
pub mod record;
pub mod wal;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use io::{RealIo, StoreIo};
use optassign_obs::{Event, Obs};
use record::{MeasurementRecord, StoreRecord};
use wal::{OpenReport, Wal};

/// Errors surfaced by store setup and maintenance operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io(String),
    /// On-disk bytes are not a valid store artifact.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store I/O error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a 64-bit hash — the store's checksum and the basis of campaign
/// fingerprints. Not cryptographic; it only needs to catch torn writes
/// and give campaign shapes distinct identities.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Hashes a sequence of words into one fingerprint (order-sensitive).
/// Callers fold campaign shape parameters through this to derive a
/// campaign identity.
#[must_use]
pub fn fingerprint(parts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(parts.len() * 8);
    for &p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Name of the write-ahead log inside a store directory (public so crash
/// tests can truncate it and tooling can find it; everything else goes
/// through [`CampaignStore`]).
pub const WAL_FILE: &str = "campaign.wal";

/// Name of the quarantine sidecar inside a store directory.
pub const QUARANTINE_FILE: &str = "campaign.quarantine";

struct StoreInner {
    obs: Obs,
    wal: Wal,
    /// Every journaled measurement, keyed for slot replay.
    measurements: HashMap<(u64, u64, u64), MeasurementRecord>,
    /// Batches whose `BatchEnd` is journaled; `end_batch` journals no
    /// second marker for these, which makes replay idempotent.
    completed: HashSet<(u64, u64)>,
    /// Whether measurements were appended since the last sync.
    unsynced: bool,
    io_errors: u64,
    open_report: OpenReport,
}

impl StoreInner {
    fn sync_wal(&mut self) {
        if self.wal.sync().is_err() {
            self.count_io_error();
        }
        self.unsynced = false;
    }

    fn count_io_error(&mut self) {
        self.io_errors += 1;
        self.obs.counter_add("store_io_errors_total", 1);
    }
}

/// A durable campaign store rooted at one directory, holding one
/// write-ahead log (plus its quarantine sidecar once a repair has moved
/// damage aside). Any other file there is ignored, including a
/// `snap-*.seg` snapshot an older version wrote when compacting: its
/// values are measured again through the log.
///
/// The store is `Sync`; the core layer shares one handle across a
/// campaign's workers. All journaling happens outside parallel regions
/// (lookups before, appends after), so the lock is uncontended in
/// practice.
pub struct CampaignStore {
    inner: Mutex<StoreInner>,
}

impl CampaignStore {
    /// Opens the store at `dir` on the real filesystem with observability
    /// disabled — the convenience form of [`CampaignStore::open_with`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure and
    /// [`StoreError::Corrupt`] if an existing file is not a valid store
    /// artifact.
    pub fn open(dir: &Path) -> Result<CampaignStore, StoreError> {
        CampaignStore::open_with(dir, &RealIo, &Obs::disabled())
    }

    /// Opens the store at `dir` through `io`, creating the directory and
    /// an empty log as needed, replaying every intact log frame, and
    /// repairing damage (truncating a torn tail, quarantining interior
    /// corruption, rewriting a magic one bit off). Repairs are reported
    /// through `obs` — `store_tail_truncated_total` /
    /// `store_frames_quarantined_total` / `store_header_repaired_total`
    /// counters plus warning events — and via [`CampaignStore::open_report`].
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure and
    /// [`StoreError::Corrupt`] if an existing file is not a valid store
    /// artifact.
    pub fn open_with(dir: &Path, io: &dyn StoreIo, obs: &Obs) -> Result<CampaignStore, StoreError> {
        io.create_dir_all(dir)
            .map_err(|e| StoreError::Io(format!("creating store dir: {e}")))?;

        let wal_path = dir.join(WAL_FILE);
        let (wal, records, open_report) = wal::open_log(io, &wal_path)?;
        report_open_damage(obs, &wal_path, &open_report);

        let mut inner = StoreInner {
            obs: obs.clone(),
            wal,
            measurements: HashMap::new(),
            completed: HashSet::new(),
            unsynced: false,
            io_errors: 0,
            open_report,
        };
        for record in records {
            match record {
                StoreRecord::Measurement(m) => {
                    let slot_key = (m.campaign, m.sequence, m.slot);
                    inner.measurements.entry(slot_key).or_insert(m);
                }
                StoreRecord::BatchEnd {
                    campaign, sequence, ..
                } => {
                    inner.completed.insert((campaign, sequence));
                }
            }
        }
        Ok(CampaignStore {
            inner: Mutex::new(inner),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the journaled record for a campaign slot, if any — the
    /// replay primitive behind checkpoint/resume.
    #[must_use]
    pub fn lookup_slot(
        &self,
        campaign: u64,
        sequence: u64,
        slot: u64,
    ) -> Option<MeasurementRecord> {
        self.lock()
            .measurements
            .get(&(campaign, sequence, slot))
            .cloned()
    }

    /// Journals one measurement. Idempotent per `(campaign, sequence,
    /// slot)`: a record for an already-journaled slot is dropped, which
    /// keeps replayed campaigns from rewriting their history. I/O
    /// failures are counted, not raised; the slot then has no record and
    /// is measured again on resume.
    pub fn append_measurement(&self, record: &MeasurementRecord) {
        let mut inner = self.lock();
        let slot_key = (record.campaign, record.sequence, record.slot);
        if inner.measurements.contains_key(&slot_key) {
            return;
        }
        if inner
            .wal
            .append(&StoreRecord::Measurement(record.clone()))
            .is_err()
        {
            inner.count_io_error();
            return;
        }
        inner.unsynced = true;
        inner.measurements.insert(slot_key, record.clone());
    }

    /// Journals a batch-completion marker and syncs the log, so a
    /// completed batch survives power loss. A batch already marked
    /// complete gets no second marker, and is synced again only when
    /// measurements were appended since the last sync — a batch that
    /// grew (a longer study on the same seed) or a lost record measured
    /// again — so its records are durable when this returns either way.
    /// I/O failures are counted, not raised.
    pub fn end_batch(&self, campaign: u64, sequence: u64, len: u64) {
        let mut inner = self.lock();
        if inner.completed.insert((campaign, sequence)) {
            // The batch completes in memory even if the marker is lost:
            // the running campaign must behave identically whether or
            // not the disk cooperates.
            if inner
                .wal
                .append(&StoreRecord::BatchEnd {
                    campaign,
                    sequence,
                    len,
                })
                .is_err()
            {
                inner.count_io_error();
            }
        } else if !inner.unsynced {
            return;
        }
        inner.sync_wal();
    }

    /// Forces journaled frames to durable storage. I/O failures are
    /// counted, not raised.
    pub fn sync(&self) {
        self.lock().sync_wal();
    }

    /// Runtime I/O failures swallowed so far.
    #[must_use]
    pub fn io_errors(&self) -> u64 {
        self.lock().io_errors
    }

    /// What the open-time scan found and repaired.
    #[must_use]
    pub fn open_report(&self) -> OpenReport {
        self.lock().open_report
    }

    /// Number of journaled measurements currently replayable.
    #[must_use]
    pub fn journaled_measurements(&self) -> usize {
        self.lock().measurements.len()
    }
}

/// Reports open-time repairs through the obs counters and warning
/// events shared by [`CampaignStore::open_with`] and [`fsck`].
fn report_open_damage(obs: &Obs, wal_path: &Path, report: &OpenReport) {
    if report.tail_truncated_bytes > 0 {
        obs.counter_add("store_tail_truncated_total", 1);
        obs.counter_add(
            "store_tail_truncated_bytes_total",
            report.tail_truncated_bytes,
        );
        obs.emit(|| {
            Event::new("store_tail_truncated")
                .with("path", wal_path.display().to_string())
                .with("bytes", report.tail_truncated_bytes)
        });
    }
    if report.header_repaired {
        obs.counter_add("store_header_repaired_total", 1);
        obs.emit(|| {
            Event::new("store_header_repaired").with("path", wal_path.display().to_string())
        });
    }
    if report.quarantined_frames > 0 {
        obs.counter_add("store_frames_quarantined_total", report.quarantined_frames);
        obs.counter_add("store_quarantined_bytes_total", report.quarantined_bytes);
        obs.emit(|| {
            Event::new("store_frames_quarantined")
                .with("path", wal_path.display().to_string())
                .with("frames", report.quarantined_frames)
                .with("bytes", report.quarantined_bytes)
        });
    }
}

/// What [`fsck`] found (and, with `repair`, fixed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Intact records currently replayable from the log.
    pub wal_records: u64,
    /// Damaged interior frames in the log (moved to the sidecar when
    /// repairing).
    pub quarantined_frames: u64,
    /// Bytes those frames occupy.
    pub quarantined_bytes: u64,
    /// Torn-tail bytes past the last recoverable frame.
    pub tail_truncated_bytes: u64,
    /// Entries already in the quarantine sidecar before this check.
    pub sidecar_entries: u64,
    /// Whether the log's magic is one bit off ([`wal::Header::OneBitOff`]);
    /// a repair rewrites it and keeps every frame.
    pub header_damaged: bool,
    /// Whether a repair pass rewrote the log.
    pub repaired: bool,
}

impl FsckReport {
    /// Whether the store shows no damage at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.quarantined_frames == 0 && self.tail_truncated_bytes == 0 && !self.header_damaged
    }
}

/// Checks the store at `dir` for damage. With `repair == false` this is
/// a pure read-only scan; with `repair == true` the write-ahead log is
/// additionally run through the normal open path, which quarantines
/// interior damage, rewrites a magic one bit off and truncates any torn
/// tail. Damage found is also reported through `obs` exactly as
/// [`CampaignStore::open_with`] would.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure, including a
/// directory that does not exist, and [`StoreError::Corrupt`] when the
/// log file exists but is not a campaign log at all
/// ([`wal::Header::Foreign`]).
pub fn fsck(
    dir: &Path,
    io: &dyn StoreIo,
    repair: bool,
    obs: &Obs,
) -> Result<FsckReport, StoreError> {
    if !io.exists(dir) {
        return Err(StoreError::Io(format!(
            "no store directory at {}",
            dir.display()
        )));
    }
    let mut report = FsckReport::default();
    let wal_path = dir.join(WAL_FILE);
    report.sidecar_entries =
        wal::read_quarantine(io, &wal::quarantine_path(&wal_path)).len() as u64;

    match io.read(&wal_path) {
        Ok(bytes) => match wal::classify_header(&bytes) {
            wal::Header::Foreign => return Err(wal::bad_magic(&wal_path)),
            wal::Header::Torn => report.tail_truncated_bytes = bytes.len() as u64,
            header @ (wal::Header::Intact | wal::Header::OneBitOff) => {
                let scan = wal::scan_body(&bytes[wal::WAL_MAGIC.len()..]);
                report.wal_records = scan.records.len() as u64;
                report.quarantined_frames = scan.quarantined.len() as u64;
                report.quarantined_bytes = scan.quarantined_bytes();
                report.tail_truncated_bytes = scan.tail_discarded as u64;
                report.header_damaged = header == wal::Header::OneBitOff;
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(StoreError::Io(format!("reading log: {e}"))),
    }

    if repair && !report.is_clean() {
        // The normal open path *is* the repair: it quarantines interior
        // damage, rebuilds the log, rewrites a magic one bit off, and
        // truncates the torn tail.
        let (_wal, _records, open_report) = wal::open_log(io, &wal_path)?;
        report_open_damage(obs, &wal_path, &open_report);
        report.repaired = !open_report.is_clean();
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("optassign-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn measurement(
        campaign: u64,
        sequence: u64,
        slot: u64,
        key: u64,
        value: f64,
    ) -> MeasurementRecord {
        MeasurementRecord {
            campaign,
            sequence,
            slot,
            key,
            value,
            attempts: 1,
            retries: 0,
            redrawn: 0,
            contexts: vec![slot as u32],
        }
    }

    #[test]
    fn slot_replay_survives_reopen() {
        let dir = temp_dir("replay");
        {
            let store = CampaignStore::open(&dir).unwrap();
            store.append_measurement(&measurement(1, 0, 0, 100, 5.0));
            store.append_measurement(&measurement(1, 0, 1, 101, 6.0));
            store.sync();
        }
        let store = CampaignStore::open(&dir).unwrap();
        assert_eq!(store.lookup_slot(1, 0, 0).unwrap().value, 5.0);
        assert_eq!(store.lookup_slot(1, 0, 1).unwrap().key, 101);
        assert!(store.lookup_slot(1, 0, 2).is_none());
        assert!(store.lookup_slot(2, 0, 0).is_none());
        assert!(store.open_report().is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_and_end_batch_are_idempotent() {
        let dir = temp_dir("idempotent");
        let store = CampaignStore::open(&dir).unwrap();
        store.append_measurement(&measurement(1, 0, 0, 100, 5.0));
        store.append_measurement(&measurement(1, 0, 0, 100, 99.0));
        assert_eq!(store.lookup_slot(1, 0, 0).unwrap().value, 5.0);
        store.end_batch(1, 0, 1);
        store.end_batch(1, 0, 1);
        assert_eq!(store.journaled_measurements(), 1);
        drop(store);
        let store = CampaignStore::open(&dir).unwrap();
        assert_eq!(store.lookup_slot(1, 0, 0).unwrap().value, 5.0);
        let report = fsck(&dir, &RealIo, false, &Obs::disabled()).unwrap();
        assert_eq!(report.wal_records, 2, "one measurement, one batch end");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_grown_batch_is_durable_when_end_batch_returns() {
        let dir = temp_dir("grown");
        let io = io::FaultyIo::new(io::IoFaultPlan::none(7));
        {
            let store = CampaignStore::open_with(&dir, &io, &Obs::disabled()).unwrap();
            store.append_measurement(&measurement(1, 0, 0, 100, 5.0));
            store.end_batch(1, 0, 1);
            // The same batch one slot longer: its first slot is already
            // journaled, the new one is appended under no second marker.
            store.append_measurement(&measurement(1, 0, 0, 100, 5.0));
            store.append_measurement(&measurement(1, 0, 1, 101, 6.0));
            store.end_batch(1, 0, 2);
        }
        // Power loss keeps none of what was never synced.
        io.crash().unwrap();
        let store = CampaignStore::open(&dir).unwrap();
        assert!(store.open_report().is_clean());
        assert_eq!(store.lookup_slot(1, 0, 1).unwrap().value, 6.0);
        assert_eq!(store.journaled_measurements(), 2);
        let report = fsck(&dir, &RealIo, false, &Obs::disabled()).unwrap();
        assert_eq!(report.wal_records, 3, "two measurements, one batch end");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[3, 2, 1]));
        assert_ne!(fingerprint(&[]), fingerprint(&[0]));
        // Known FNV-1a vector: hash of the empty string is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn quarantined_damage_is_counted_and_survivors_replay() {
        let dir = temp_dir("quarcount");
        {
            let store = CampaignStore::open(&dir).unwrap();
            for slot in 0..4u64 {
                store.append_measurement(&measurement(1, 0, slot, 100 + slot, slot as f64));
            }
            store.end_batch(1, 0, 4);
        }
        // Corrupt the second frame's payload.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let first_frame =
            wal::encode_frame(&StoreRecord::Measurement(measurement(1, 0, 0, 100, 0.0))).len();
        bytes[wal::WAL_MAGIC.len() + first_frame + wal::FRAME_HEADER_LEN + 3] ^= 0x10;
        std::fs::write(&wal_path, &bytes).unwrap();

        let obs = Obs::metrics_only();
        let store = CampaignStore::open_with(&dir, &RealIo, &obs).unwrap();
        assert_eq!(store.open_report().quarantined_frames, 1);
        assert_eq!(obs.metrics().counter("store_frames_quarantined_total"), 1);
        // Slots 0, 2, 3 survive; slot 1 was quarantined away.
        assert!(store.lookup_slot(1, 0, 0).is_some());
        assert!(store.lookup_slot(1, 0, 1).is_none());
        assert!(store.lookup_slot(1, 0, 2).is_some());
        assert!(store.lookup_slot(1, 0, 3).is_some());
        // Sidecar exists and holds the damaged frame.
        assert!(dir.join(QUARANTINE_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_truncation_is_counted() {
        let dir = temp_dir("tailcount");
        {
            let store = CampaignStore::open(&dir).unwrap();
            store.append_measurement(&measurement(1, 0, 0, 100, 5.0));
            store.sync();
        }
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
        // The whole partial frame is the torn tail, not just the 3 bytes
        // chopped off.
        let torn = (bytes.len() - 3 - wal::WAL_MAGIC.len()) as u64;
        let obs = Obs::metrics_only();
        let store = CampaignStore::open_with(&dir, &RealIo, &obs).unwrap();
        assert_eq!(store.open_report().tail_truncated_bytes, torn);
        assert_eq!(obs.metrics().counter("store_tail_truncated_total"), 1);
        assert_eq!(
            obs.metrics().counter("store_tail_truncated_bytes_total"),
            torn
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_reports_and_repairs() {
        let dir = temp_dir("fsck");
        {
            let store = CampaignStore::open(&dir).unwrap();
            for slot in 0..3u64 {
                store.append_measurement(&measurement(1, 0, slot, 100 + slot, slot as f64));
            }
            store.end_batch(1, 0, 3);
        }
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        bytes[wal::WAL_MAGIC.len() + wal::FRAME_HEADER_LEN + 1] ^= 0x08;
        std::fs::write(&wal_path, &bytes).unwrap();

        // Report mode finds the damage and mutates nothing.
        let before = std::fs::read(&wal_path).unwrap();
        let report = fsck(&dir, &RealIo, false, &Obs::disabled()).unwrap();
        assert_eq!(report.quarantined_frames, 1);
        assert!(!report.is_clean());
        assert!(!report.repaired);
        assert_eq!(std::fs::read(&wal_path).unwrap(), before);

        // Repair mode quarantines and leaves a clean store behind.
        let report = fsck(&dir, &RealIo, true, &Obs::disabled()).unwrap();
        assert!(report.repaired);
        let report = fsck(&dir, &RealIo, false, &Obs::disabled()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.wal_records, 3); // 2 measurements + 1 batch end
        assert_eq!(report.sidecar_entries, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_of_a_missing_directory_is_an_io_error() {
        let dir = temp_dir("fsck-missing");
        match fsck(&dir, &RealIo, false, &Obs::disabled()) {
            Err(StoreError::Io(msg)) => assert!(msg.starts_with("no store directory"), "{msg}"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn a_magic_one_bit_off_keeps_every_frame_and_repairs_to_clean() {
        let dir = temp_dir("magic-flip");
        {
            let store = CampaignStore::open(&dir).unwrap();
            for slot in 0..3u64 {
                store.append_measurement(&measurement(1, 0, slot, 100 + slot, slot as f64));
            }
            store.sync();
        }
        let wal_path = dir.join(WAL_FILE);
        let intact = std::fs::read(&wal_path).unwrap();
        let flipped = |bits: &[usize]| {
            let mut bytes = intact.clone();
            for &bit in bits {
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            std::fs::write(&wal_path, &bytes).unwrap();
        };
        let replays_all = |store: &CampaignStore| {
            store.journaled_measurements() == 3
                && (0..3).all(|slot| store.lookup_slot(1, 0, slot).is_some())
        };
        let disabled = Obs::disabled();
        for bit in 0..8 * wal::WAL_MAGIC.len() {
            // fsck finds the damage, and its repair leaves a clean log.
            flipped(&[bit]);
            let report = fsck(&dir, &RealIo, false, &disabled).unwrap();
            assert!(report.header_damaged && !report.is_clean(), "bit {bit}");
            assert_eq!(report.wal_records, 3, "bit {bit}");
            assert!(fsck(&dir, &RealIo, true, &disabled).unwrap().repaired);
            assert!(fsck(&dir, &RealIo, false, &disabled).unwrap().is_clean());
            assert_eq!(std::fs::read(&wal_path).unwrap(), intact, "bit {bit}");
            // Opening repairs it the same way, and reports it.
            flipped(&[bit]);
            let obs = Obs::metrics_only();
            let store = CampaignStore::open_with(&dir, &RealIo, &obs).unwrap();
            assert!(store.open_report().header_repaired, "bit {bit}");
            assert!(replays_all(&store), "bit {bit}");
            assert_eq!(obs.metrics().counter("store_header_repaired_total"), 1);
            drop(store);
            assert!(fsck(&dir, &RealIo, false, &disabled).unwrap().is_clean());
        }
        // Two bits off, or a foreign file, is not a campaign log.
        for bits in [&[0usize, 9][..], &[5, 6]] {
            flipped(bits);
            assert!(matches!(
                fsck(&dir, &RealIo, true, &disabled),
                Err(StoreError::Corrupt(_))
            ));
            assert!(matches!(
                CampaignStore::open(&dir),
                Err(StoreError::Corrupt(_))
            ));
        }
        std::fs::write(&wal_path, b"hello world, this is text").unwrap();
        assert!(matches!(
            fsck(&dir, &RealIo, false, &disabled),
            Err(StoreError::Corrupt(_))
        ));
        assert!(matches!(
            CampaignStore::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
