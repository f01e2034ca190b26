//! Injectable storage I/O: the seam every durable byte flows through.
//!
//! The store's crash-safety claims ("the only crash artifact is a torn
//! tail", "a corrupt frame is quarantined, never silently trusted") are
//! only testable if the failure modes that produce such damage can be
//! injected on demand and reproduced from a seed. [`StoreIo`] abstracts
//! the handful of filesystem operations the store performs; [`RealIo`]
//! maps them to `std::fs`, and [`FaultyIo`] wraps the real filesystem
//! with a deterministic, seeded schedule of storage faults — the durable
//! twin of the core layer's `FaultyModel`:
//!
//! * **short writes** — an append persists only a prefix of the frame
//!   and reports failure (torn frame mid-log);
//! * **ENOSPC** — an append fails outright with nothing written;
//! * **bit-flip corruption** — an append persists with one flipped bit
//!   and reports *success* (silent media corruption);
//! * **lost fsync** — a sync reports success without advancing the
//!   durable watermark, so a later [`FaultyIo::crash`] loses the data
//!   the caller believed safe;
//! * **dead disk** — after a scheduled number of operations every
//!   mutation fails, simulating a kill mid-campaign.
//!
//! Every decision is a pure function of `(plan seed, operation index)`,
//! and the store performs all journaling from sequential orchestration
//! code, so a faulty run is bit-reproducible at any worker count.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// An open append-only file handle.
pub trait StoreFile: Send {
    /// Appends `bytes` at the end of the file.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the file may hold a prefix of `bytes`
    /// (a torn frame) when the failure was a short write.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flushes appended bytes toward durable storage.
    ///
    /// # Errors
    ///
    /// Propagates sync failures.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem surface the store needs, as a swappable trait object.
///
/// All paths are absolute or caller-relative; implementations never
/// interpret them. `Send + Sync` so one handle serves a whole campaign.
pub trait StoreIo: Send + Sync {
    /// Reads a file in full. `ErrorKind::NotFound` when it is absent.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) `path`, writes `bytes`, and syncs — the
    /// whole-file publish primitive used for repairs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Opens `path` for appending, creating it empty when absent.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>>;

    /// Truncates `path` to `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn set_len(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Atomically renames `from` onto `to`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Creates a directory and its ancestors.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production implementation: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

struct RealFile(std::fs::File);

impl StoreFile for RealFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        self.0.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl StoreIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_data()
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// What storage faults to inject, and how often.
///
/// Rates are probabilities per mutating operation in `[0, 1]`. At most
/// one fault fires per operation (tried in the order ENOSPC → short
/// write → bit flip), which keeps each failure artifact attributable to
/// one cause.
#[derive(Debug, Clone, PartialEq)]
pub struct IoFaultPlan {
    /// Seed driving every fault decision.
    pub seed: u64,
    /// Probability an append fails with `StorageFull`, writing nothing.
    pub enospc_rate: f64,
    /// Probability an append persists only a strict prefix of its bytes
    /// and reports failure (a torn frame).
    pub short_write_rate: f64,
    /// Probability an append persists with a single flipped bit while
    /// reporting success (silent corruption).
    pub corrupt_rate: f64,
    /// Probability a sync reports success without making the appended
    /// bytes durable — they vanish at the next [`FaultyIo::crash`].
    pub lost_sync_rate: f64,
    /// After this many operations, every mutation fails (`BrokenPipe`):
    /// the disk "dies" mid-campaign. `None` keeps it alive forever.
    pub crash_after_ops: Option<u64>,
}

impl IoFaultPlan {
    /// No faults: [`FaultyIo`] behaves exactly like [`RealIo`] (modulo
    /// crash-truncation bookkeeping, which is then a no-op).
    #[must_use]
    pub fn none(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            seed,
            enospc_rate: 0.0,
            short_write_rate: 0.0,
            corrupt_rate: 0.0,
            lost_sync_rate: 0.0,
            crash_after_ops: None,
        }
    }

    /// A harsh profile exercising every storage-fault class at once.
    #[must_use]
    pub fn harsh(seed: u64) -> IoFaultPlan {
        IoFaultPlan {
            enospc_rate: 0.02,
            short_write_rate: 0.03,
            corrupt_rate: 0.02,
            lost_sync_rate: 0.10,
            ..IoFaultPlan::none(seed)
        }
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.enospc_rate <= 0.0
            && self.short_write_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.lost_sync_rate <= 0.0
            && self.crash_after_ops.is_none()
    }
}

/// Counts of injected storage faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoFaultStats {
    /// Mutating operations attempted.
    pub ops: u64,
    /// Appends failed with `StorageFull`.
    pub enospc: u64,
    /// Appends torn to a prefix.
    pub short_writes: u64,
    /// Appends silently corrupted by a bit flip.
    pub corrupted: u64,
    /// Syncs that lied about durability.
    pub lost_syncs: u64,
    /// Operations refused by the dead disk.
    pub dead_ops: u64,
}

/// SplitMix64: the whole fault schedule derives from hashing
/// `(seed, op, salt)` through this — stateless, so an outcome depends
/// only on the operation index, never on thread timing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SALT_ENOSPC: u64 = 0x01;
const SALT_SHORT: u64 = 0x02;
const SALT_CORRUPT: u64 = 0x03;
const SALT_SYNC: u64 = 0x04;
const SALT_POS: u64 = 0x05;

fn draw(seed: u64, op: u64, salt: u64) -> u64 {
    splitmix64(
        seed ^ op.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ salt.wrapping_mul(0xA076_1D64_78BD_642F),
    )
}

/// Maps a draw to the unit interval.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-file durability bookkeeping: how many bytes the file holds as
/// written through this handle, and how many a crash would preserve.
#[derive(Debug, Clone, Copy, Default)]
struct FileMark {
    current: u64,
    durable: u64,
}

#[derive(Default)]
struct FaultyState {
    marks: HashMap<PathBuf, FileMark>,
    stats: IoFaultStats,
}

struct FaultyShared {
    plan: IoFaultPlan,
    ops: AtomicU64,
    state: Mutex<FaultyState>,
}

fn dead_disk() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "injected fault: disk died")
}

fn enospc() -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        "injected fault: no space left on device",
    )
}

impl FaultyShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, FaultyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next operation index, or fails if the disk has died.
    fn next_op(&self) -> io::Result<u64> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        self.lock().stats.ops += 1;
        if let Some(limit) = self.plan.crash_after_ops {
            if op >= limit {
                self.lock().stats.dead_ops += 1;
                return Err(dead_disk());
            }
        }
        Ok(op)
    }

    fn mark(&self, path: &Path) -> FileMark {
        self.lock().marks.get(path).copied().unwrap_or_default()
    }

    fn set_mark(&self, path: &Path, mark: FileMark) {
        self.lock().marks.insert(path.to_path_buf(), mark);
    }

    fn advance(&self, path: &Path, appended: u64) {
        let mut mark = self.mark(path);
        mark.current += appended;
        self.set_mark(path, mark);
    }
}

/// A deterministic chaos filesystem: real `std::fs` underneath, with a
/// seeded [`IoFaultPlan`] deciding, per operation, whether to tear,
/// starve, corrupt, or lie. [`FaultyIo::crash`] then simulates power
/// loss by truncating every tracked file back to its durable watermark
/// plus a deterministic fraction of its unsynced tail (a torn tail,
/// exactly what a real crash leaves).
///
/// The store borrows the handle only while it opens; the harness keeps
/// it for [`FaultyIo::stats`] and [`FaultyIo::crash`]. The append
/// handles it gives out share its fault schedule and durability
/// watermarks.
pub struct FaultyIo {
    shared: Arc<FaultyShared>,
}

impl FaultyIo {
    /// A chaos filesystem driven by `plan`.
    ///
    /// # Panics
    ///
    /// Panics when a rate is outside `[0, 1]`.
    #[must_use]
    pub fn new(plan: IoFaultPlan) -> FaultyIo {
        for (name, rate) in [
            ("enospc_rate", plan.enospc_rate),
            ("short_write_rate", plan.short_write_rate),
            ("corrupt_rate", plan.corrupt_rate),
            ("lost_sync_rate", plan.lost_sync_rate),
        ] {
            assert!((0.0..=1.0).contains(&rate), "{name} {rate} not in [0, 1]");
        }
        FaultyIo {
            shared: Arc::new(FaultyShared {
                plan,
                ops: AtomicU64::new(0),
                state: Mutex::new(FaultyState::default()),
            }),
        }
    }

    /// The active fault plan.
    #[must_use]
    pub fn plan(&self) -> &IoFaultPlan {
        &self.shared.plan
    }

    /// Injection counts so far.
    #[must_use]
    pub fn stats(&self) -> IoFaultStats {
        self.shared.lock().stats
    }

    /// Simulates power loss: every file written through this handle is
    /// truncated back to its durable watermark plus a deterministic
    /// fraction of whatever was appended since the last honest sync —
    /// i.e. a torn tail. Returns the number of files that lost bytes.
    ///
    /// # Errors
    ///
    /// Propagates truncation failures (the crash is simulated *on* the
    /// real filesystem, which must cooperate).
    pub fn crash(&self) -> io::Result<usize> {
        let shared = &self.shared;
        let mut paths: Vec<PathBuf> = shared.lock().marks.keys().cloned().collect();
        paths.sort();
        let mut torn = 0usize;
        for path in paths {
            let mark = shared.mark(&path);
            if mark.current <= mark.durable {
                continue;
            }
            let unsynced = mark.current - mark.durable;
            // Keep a deterministic slice of the unsynced tail: from 0
            // bytes (all lost) up to unsynced - 1 (almost all kept). The
            // slice is seeded by the file's name, not its full path, so a
            // run reproduces wherever its directory lives.
            let name = path.file_name().unwrap_or(path.as_os_str());
            let path_seed = crate::fnv1a64(name.as_encoded_bytes());
            let keep = draw(shared.plan.seed ^ path_seed, mark.current, SALT_POS) % unsynced;
            let len = mark.durable + keep;
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(len)?;
            file.sync_data()?;
            torn += 1;
            shared.set_mark(
                &path,
                FileMark {
                    current: len,
                    durable: len,
                },
            );
        }
        Ok(torn)
    }
}

/// The append handle [`FaultyIo`] hands out: every write and sync runs
/// through the shared fault schedule and durability bookkeeping.
struct FaultyFile {
    shared: Arc<FaultyShared>,
    path: PathBuf,
    file: std::fs::File,
}

impl StoreFile for FaultyFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        let shared = Arc::clone(&self.shared);
        let op = shared.next_op()?;
        let seed = shared.plan.seed;
        if unit(draw(seed, op, SALT_ENOSPC)) < shared.plan.enospc_rate {
            shared.lock().stats.enospc += 1;
            return Err(enospc());
        }
        if !bytes.is_empty() && unit(draw(seed, op, SALT_SHORT)) < shared.plan.short_write_rate {
            let keep = (draw(seed, op, SALT_POS) as usize) % bytes.len();
            self.file.write_all(&bytes[..keep])?;
            shared.advance(&self.path, keep as u64);
            shared.lock().stats.short_writes += 1;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected fault: short write",
            ));
        }
        if !bytes.is_empty() && unit(draw(seed, op, SALT_CORRUPT)) < shared.plan.corrupt_rate {
            let mut copy = bytes.to_vec();
            let roll = draw(seed, op, SALT_POS);
            let pos = (roll as usize) % copy.len();
            copy[pos] ^= 1 << ((roll >> 32) & 7);
            self.file.write_all(&copy)?;
            shared.advance(&self.path, copy.len() as u64);
            shared.lock().stats.corrupted += 1;
            // Silent: the caller believes the frame landed intact.
            return Ok(());
        }
        self.file.write_all(bytes)?;
        shared.advance(&self.path, bytes.len() as u64);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let op = shared.next_op()?;
        if unit(draw(shared.plan.seed, op, SALT_SYNC)) < shared.plan.lost_sync_rate {
            shared.lock().stats.lost_syncs += 1;
            // Lie: report success, leave the durable watermark behind.
            return Ok(());
        }
        self.file.sync_data()?;
        let mut mark = shared.mark(&self.path);
        mark.durable = mark.current;
        shared.set_mark(&self.path, mark);
        Ok(())
    }
}

impl StoreIo for FaultyIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        // Reads are never faulted: corruption is injected at write time,
        // where it persists, rather than flickering per read.
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        let shared = &self.shared;
        let op = shared.next_op()?;
        let seed = shared.plan.seed;
        if unit(draw(seed, op, SALT_ENOSPC)) < shared.plan.enospc_rate {
            shared.lock().stats.enospc += 1;
            return Err(enospc());
        }
        let mut owned;
        let out =
            if !bytes.is_empty() && unit(draw(seed, op, SALT_CORRUPT)) < shared.plan.corrupt_rate {
                owned = bytes.to_vec();
                let roll = draw(seed, op, SALT_POS);
                let pos = (roll as usize) % owned.len();
                owned[pos] ^= 1 << ((roll >> 32) & 7);
                shared.lock().stats.corrupted += 1;
                &owned[..]
            } else {
                bytes
            };
        let mut file = std::fs::File::create(path)?;
        file.write_all(out)?;
        file.sync_data()?;
        shared.set_mark(
            path,
            FileMark {
                current: out.len() as u64,
                durable: out.len() as u64,
            },
        );
        Ok(())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        // Opening may create the file, so it is a mutation the dead disk
        // refuses.
        self.shared.next_op()?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        // Bytes present at open predate this handle; treat them as
        // durable (they survived whatever produced them).
        self.shared.set_mark(
            path,
            FileMark {
                current: len,
                durable: len,
            },
        );
        Ok(Box::new(FaultyFile {
            shared: Arc::clone(&self.shared),
            path: path.to_path_buf(),
            file,
        }))
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.shared.next_op()?;
        RealIo.set_len(path, len)?;
        let mut mark = self.shared.mark(path);
        mark.current = mark.current.min(len);
        mark.durable = mark.durable.min(len);
        self.shared.set_mark(path, mark);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.shared.next_op()?;
        std::fs::rename(from, to)?;
        let mut state = self.shared.lock();
        if let Some(mark) = state.marks.remove(from) {
            state.marks.insert(to.to_path_buf(), mark);
        }
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.shared.next_op()?;
        std::fs::create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("optassign-io-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_io_roundtrips() {
        let dir = temp_dir("real");
        let io = RealIo;
        let path = dir.join("file");
        {
            let mut f = io.open_append(&path).unwrap();
            f.append(b"hello ").unwrap();
            f.append(b"world").unwrap();
            f.sync().unwrap();
        }
        assert_eq!(io.read(&path).unwrap(), b"hello world");
        io.set_len(&path, 5).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"hello");
        let other = dir.join("other");
        io.rename(&path, &other).unwrap();
        assert!(io.exists(&other) && !io.exists(&path));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_plan_is_transparent() {
        let dir = temp_dir("clean");
        let io = FaultyIo::new(IoFaultPlan::none(1));
        let path = dir.join("file");
        let mut f = io.open_append(&path).unwrap();
        for _ in 0..50 {
            f.append(b"0123456789").unwrap();
        }
        f.sync().unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap().len(), 500);
        assert_eq!(io.stats().enospc, 0);
        assert_eq!(io.stats().corrupted, 0);
        assert_eq!(io.crash().unwrap(), 0, "synced file survives a crash");
        assert_eq!(std::fs::read(&path).unwrap().len(), 500);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = |tag: &str| {
            let dir = temp_dir(tag);
            let io = FaultyIo::new(IoFaultPlan::harsh(42));
            let path = dir.join("file");
            let mut f = io.open_append(&path).unwrap();
            let mut outcomes = Vec::new();
            for i in 0..200u32 {
                let payload = [i as u8; 24];
                outcomes.push(f.append(&payload).map_err(|e| e.kind()));
                if i % 10 == 0 {
                    outcomes.push(f.sync().map_err(|e| e.kind()));
                }
            }
            drop(f);
            let bytes = std::fs::read(&path).unwrap();
            let stats = io.stats();
            std::fs::remove_dir_all(&dir).unwrap();
            (outcomes, bytes, stats)
        };
        let a = run("det-a");
        let b = run("det-b");
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert!(a.2.short_writes > 0 || a.2.enospc > 0 || a.2.corrupted > 0);
    }

    #[test]
    fn dead_disk_fails_everything_after_the_limit() {
        let dir = temp_dir("dead");
        // Four live operations: the open and three appends.
        let io = FaultyIo::new(IoFaultPlan {
            crash_after_ops: Some(4),
            ..IoFaultPlan::none(7)
        });
        let path = dir.join("file");
        let mut f = io.open_append(&path).unwrap();
        assert!(f.append(b"one").is_ok());
        assert!(f.append(b"two").is_ok());
        assert!(f.append(b"three").is_ok());
        assert_eq!(
            f.append(b"four").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(f.sync().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        // The whole-file mutations die with the disk too, and leave the
        // file as it was.
        let moved = dir.join("moved");
        assert_eq!(
            io.rename(&path, &moved).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(
            io.set_len(&path, 0).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        assert_eq!(
            io.create_dir_all(&dir.join("sub")).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
        // Opening for append could create a file, so it dies too.
        let fresh = dir.join("fresh");
        assert_eq!(
            io.open_append(&fresh).err().map(|e| e.kind()),
            Some(io::ErrorKind::BrokenPipe)
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"onetwothree");
        assert!(!moved.exists() && !dir.join("sub").exists() && !fresh.exists());
        assert_eq!(io.stats().dead_ops, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lost_sync_then_crash_loses_the_tail() {
        let dir = temp_dir("lostsync");
        let io = FaultyIo::new(IoFaultPlan {
            lost_sync_rate: 1.0,
            ..IoFaultPlan::none(9)
        });
        let path = dir.join("file");
        let mut f = io.open_append(&path).unwrap();
        f.append(&[7u8; 100]).unwrap();
        f.sync().unwrap(); // lies
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap().len(), 100);
        assert_eq!(io.stats().lost_syncs, 1);
        assert_eq!(io.crash().unwrap(), 1);
        let survived = std::fs::read(&path).unwrap().len();
        assert!(survived < 100, "unsynced bytes must not all survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_append_reports_success_with_damaged_bytes() {
        let dir = temp_dir("corrupt");
        let io = FaultyIo::new(IoFaultPlan {
            corrupt_rate: 1.0,
            ..IoFaultPlan::none(3)
        });
        let path = dir.join("file");
        let mut f = io.open_append(&path).unwrap();
        let payload = [0u8; 64];
        f.append(&payload).unwrap();
        drop(f);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 64);
        assert_ne!(bytes.as_slice(), payload.as_slice());
        assert_eq!(
            bytes.iter().filter(|&&b| b != 0).count(),
            1,
            "exactly one byte should differ"
        );
        assert_eq!(io.stats().corrupted, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn rejects_bad_rates() {
        let _ = FaultyIo::new(IoFaultPlan {
            corrupt_rate: 2.0,
            ..IoFaultPlan::none(0)
        });
    }
}
