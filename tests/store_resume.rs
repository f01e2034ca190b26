//! Crash-recovery and resume contract of the durable campaign store.
//!
//! The contract under test (see `DESIGN.md` §8): a persistent campaign
//! killed at **any byte** of its write-ahead log and re-invoked with the
//! same arguments produces exactly the outputs of an uninterrupted run —
//! at any worker count, with or without an observability recorder — and
//! a completed campaign replays without evaluating the model at all.
//! Every slot resolves from its own record or is measured, so a
//! persistent run is the store-free run, bit for bit, for any model.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::iterative::{
    run_iterative, run_iterative_obs, run_iterative_persistent, run_iterative_persistent_obs,
    IterativeConfig, IterativeResult,
};
use optassign::model::{PerformanceModel, SimModel, SyntheticModel};
use optassign::persist::CampaignStore;
use optassign::study::SampleStudy;
use optassign::{Assignment, Parallelism, Topology};
use optassign_netapps::Benchmark;
use optassign_obs::{MemoryRecorder, MonotonicClock, Obs};
use optassign_sim::MachineConfig;
use optassign_store::io::{FaultyIo, IoFaultPlan, RealIo};
use optassign_store::{wal, QUARANTINE_FILE, WAL_FILE};

const SEED: u64 = 21;

fn model() -> SyntheticModel {
    SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6)
}

/// Counts evaluations so replay behaviour is checkable.
struct Counting<M> {
    inner: M,
    evals: AtomicUsize,
}

impl<M> Counting<M> {
    fn new(inner: M) -> Self {
        Counting {
            inner,
            evals: AtomicUsize::new(0),
        }
    }
    fn count(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }
}

impl<M: PerformanceModel> PerformanceModel for Counting<M> {
    fn tasks(&self) -> usize {
        self.inner.tasks()
    }
    fn topology(&self) -> Topology {
        self.inner.topology()
    }
    fn evaluate(&self, assignment: &Assignment) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(assignment)
    }
}

fn config(workers: usize) -> IterativeConfig {
    IterativeConfig {
        n_init: 300,
        n_delta: 100,
        acceptable_loss: 0.08,
        parallelism: Parallelism::new(workers),
        ..IterativeConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optassign-resume-{tag}-{}", std::process::id()))
}

/// Materializes a store directory whose log is the first `cut` bytes of
/// `wal` — exactly the on-disk state of a run killed at that byte.
fn store_with_wal_prefix(dir: &Path, wal: &[u8], cut: usize) -> CampaignStore {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("scratch dir");
    fs::write(dir.join(WAL_FILE), &wal[..cut]).expect("truncated log");
    CampaignStore::open(dir).expect("recovery is clean")
}

/// End offset of every complete frame in the log, starting at the magic
/// (offset 8). Parsed independently of the store crate's own scanner so
/// the test also pins the on-disk layout: `[len: u32 LE][crc: u64
/// LE][payload]` frames after an 8-byte magic.
fn frame_ends(wal: &[u8]) -> Vec<usize> {
    assert_eq!(&wal[..8], b"OASTWAL1", "log magic");
    let mut ends = vec![8usize];
    let mut off = 8;
    while off + 12 <= wal.len() {
        let len = u32::from_le_bytes(wal[off..off + 4].try_into().expect("4 bytes")) as usize;
        let end = off + 12 + len;
        if end > wal.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    assert_eq!(*ends.last().expect("non-empty"), wal.len(), "no torn tail");
    ends
}

/// Bit-identity between two iterative results; `Debug` covers every
/// field, including the estimate provenance and the degradation events.
fn assert_same_result(resumed: &IterativeResult, reference: &IterativeResult, context: &str) {
    assert_eq!(
        resumed.best_performance, reference.best_performance,
        "best_performance diverged: {context}"
    );
    assert_eq!(
        resumed.samples_used, reference.samples_used,
        "samples_used diverged: {context}"
    );
    assert_eq!(
        format!("{resumed:?}"),
        format!("{reference:?}"),
        "result diverged: {context}"
    );
}

#[test]
fn resume_is_bit_identical_at_every_tail_byte_and_at_record_boundaries() {
    let m = model();
    let ref_dir = scratch("ref");
    let _ = fs::remove_dir_all(&ref_dir);
    let store = CampaignStore::open(&ref_dir).expect("fresh store");
    let reference =
        run_iterative_persistent(&m, &config(2), SEED, &store).expect("uninterrupted run");
    store.sync();
    drop(store);
    let wal = fs::read(ref_dir.join(WAL_FILE)).expect("log exists");
    let ends = frame_ends(&wal);
    assert!(
        ends.len() > 10,
        "campaign journaled {} frames",
        ends.len() - 1
    );

    let dir = scratch("cut");
    let mut resumes = 0usize;
    // Every byte offset of the tail record: a crash mid-write of the
    // final frame must recover to the last complete frame and resume
    // exactly. (Earlier frames have identical framing, so byte-level
    // coverage of the tail transfers to all of them.)
    let tail_start = ends[ends.len() - 2];
    for cut in tail_start..wal.len() {
        for workers in [1usize, 4] {
            let store = store_with_wal_prefix(&dir, &wal, cut);
            let resumed = run_iterative_persistent(&m, &config(workers), SEED, &store)
                .expect("resume succeeds");
            assert_same_result(
                &resumed,
                &reference,
                &format!("cut at byte {cut}/{} with {workers} workers", wal.len()),
            );
            resumes += 1;
        }
    }
    // Sampled record boundaries across the whole log, including the
    // empty log (magic only) and the complete one.
    for (i, &cut) in ends.iter().enumerate() {
        if !i.is_multiple_of(37) && cut != wal.len() {
            continue;
        }
        for workers in [1usize, 4] {
            let store = store_with_wal_prefix(&dir, &wal, cut);
            let resumed = run_iterative_persistent(&m, &config(workers), SEED, &store)
                .expect("resume succeeds");
            assert_same_result(
                &resumed,
                &reference,
                &format!("boundary {i} (byte {cut}) with {workers} workers"),
            );
            resumes += 1;
        }
    }
    assert!(resumes > 20, "exercised only {resumes} resumes");
    fs::remove_dir_all(&ref_dir).expect("cleanup");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_is_identical_with_and_without_a_recorder() {
    let m = model();
    let ref_dir = scratch("obs-ref");
    let _ = fs::remove_dir_all(&ref_dir);
    let store = CampaignStore::open(&ref_dir).expect("fresh store");
    let reference =
        run_iterative_persistent(&m, &config(2), SEED, &store).expect("uninterrupted run");
    drop(store);
    let wal = fs::read(ref_dir.join(WAL_FILE)).expect("log exists");
    let ends = frame_ends(&wal);
    let cut = ends[ends.len() / 2];

    let dir = scratch("obs-cut");
    // Silent resume…
    let store = store_with_wal_prefix(&dir, &wal, cut);
    let silent = run_iterative_persistent(&m, &config(1), SEED, &store).expect("resume");
    // …and a recorded resume from the same crash point.
    let store = store_with_wal_prefix(&dir, &wal, cut);
    let recorder = std::sync::Arc::new(MemoryRecorder::default());
    let obs = Obs::new(Box::new(recorder.clone()), Box::<MonotonicClock>::default());
    let recorded =
        run_iterative_persistent_obs(&m, &config(4), SEED, &store, &obs).expect("resume");
    assert!(
        !recorder.is_empty(),
        "the recorder actually observed the run"
    );
    assert_same_result(&silent, &reference, "silent resume");
    assert_same_result(&recorded, &reference, "recorded resume");
    fs::remove_dir_all(&ref_dir).expect("cleanup");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn warm_rerun_performs_zero_model_evaluations() {
    let m = Counting::new(model());
    let dir = scratch("warm");
    let _ = fs::remove_dir_all(&dir);
    let store = CampaignStore::open(&dir).expect("fresh store");
    let cold = run_iterative_persistent(&m, &config(2), SEED, &store).expect("cold run");
    let cold_evals = m.count();
    assert!(cold_evals > 0);
    drop(store);

    let store = CampaignStore::open(&dir).expect("reopen");
    let warm = run_iterative_persistent(&m, &config(1), SEED, &store).expect("warm run");
    assert_eq!(m.count(), cold_evals, "warm rerun re-evaluated the model");
    assert_same_result(&warm, &cold, "warm rerun");
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The jittered model measures equivalent placements differently, and
/// six tasks repeat classes within a few hundred draws: a persistent run
/// still matches the plain one.
#[test]
fn persistent_run_matches_plain_for_any_model() {
    let m = model();
    let dir = scratch("plain");
    let _ = fs::remove_dir_all(&dir);
    let plain = run_iterative_obs(&m, &config(2), SEED, &Obs::disabled()).expect("plain run");
    let store = CampaignStore::open(&dir).expect("fresh store");
    let persistent = run_iterative_persistent(&m, &config(2), SEED, &store).expect("persistent");
    assert_same_result(&persistent, &plain, "persistent vs plain");
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The simulator seeds its strands from the labelled contexts, so
/// equivalent placements measure differently, and one IPFwd-L1 instance
/// has few classes, so later batches redraw classes earlier ones
/// measured. The persistent run measures every slot itself, as the
/// store-free run does.
#[test]
fn persistent_simulator_run_matches_the_store_free_run() {
    let workload = Benchmark::IpFwdL1.build_workload(1, 0x0A5F_2012);
    let m = SimModel::new(MachineConfig::ultrasparc_t2(), workload).with_windows(500, 1000);
    let cfg = IterativeConfig {
        n_init: 100,
        n_delta: 40,
        acceptable_loss: 0.0005,
        max_samples: 300,
        eval_budget: 5000,
        parallelism: Parallelism::new(2),
        ..IterativeConfig::default()
    };
    let seed = 20_120_301;
    let plain = run_iterative(&m, &cfg, seed).expect("store-free run");
    assert_eq!(plain.evaluations, 300);
    let dir = scratch("sim-plain");
    let _ = fs::remove_dir_all(&dir);
    let store = CampaignStore::open(&dir).expect("fresh store");
    let persistent = run_iterative_persistent(&m, &cfg, seed, &store).expect("persistent");
    assert_same_result(&persistent, &plain, "persistent vs store-free");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resilient_resume_restores_fault_bookkeeping() {
    let m = FaultyModel::new(model(), FaultPlan::harsh(SEED));
    let dir = scratch("faulty");
    let _ = fs::remove_dir_all(&dir);
    let store = CampaignStore::open(&dir).expect("fresh store");
    let (reference, ref_log) = SampleStudy::run_resilient_with(
        &m,
        120,
        SEED,
        3,
        Parallelism::default(),
        &Obs::disabled(),
        Some(&store),
    )
    .expect("uninterrupted");
    assert!(ref_log.attempts > 120, "faults actually cost retries");
    drop(store);
    let wal = fs::read(dir.join(WAL_FILE)).expect("log exists");
    let ends = frame_ends(&wal);

    let cut_dir = scratch("faulty-cut");
    for cut in [ends[1], ends[ends.len() / 2], ends[ends.len() - 2]] {
        for workers in [1usize, 4] {
            let store = store_with_wal_prefix(&cut_dir, &wal, cut);
            m.reset();
            let (resumed, log) = SampleStudy::run_resilient_with(
                &m,
                120,
                SEED,
                3,
                Parallelism::new(workers),
                &Obs::disabled(),
                Some(&store),
            )
            .expect("resume");
            assert_eq!(resumed.performances(), reference.performances());
            assert_eq!(resumed.assignments(), reference.assignments());
            assert_eq!(
                log, ref_log,
                "measurement log at cut {cut}, {workers} workers"
            );
        }
    }
    fs::remove_dir_all(&dir).expect("cleanup");
    fs::remove_dir_all(&cut_dir).expect("cleanup");
}

/// Opens `dir` on a disk that dies after `ops` mutations, lets
/// `campaign` run on the store if the open survived, then cuts the power
/// ([`FaultyIo::crash`]). Returns how many mutations the disk was asked
/// for.
fn crash_after(dir: &Path, ops: Option<u64>, campaign: impl FnOnce(&CampaignStore)) -> u64 {
    let faulty = FaultyIo::new(IoFaultPlan {
        crash_after_ops: ops,
        ..IoFaultPlan::none(SEED)
    });
    // An open the dead disk stops fails; the crash below still happens.
    if let Ok(store) = CampaignStore::open_with(dir, &faulty, &Obs::disabled()) {
        campaign(&store);
    }
    faulty.crash().expect("crash truncation");
    faulty.stats().ops
}

/// Every crash point of the store, enumerated rather than sampled: a
/// crash after each mutation a small iterative campaign makes (directory
/// creation, log magic, measurement appends, batch ends and their
/// syncs), and after each mutation the open that repairs an interior bit
/// flip makes (directory creation, sidecar append and sync, repaired-log
/// write and rename). The campaign on the dying disk must return the
/// uninterrupted result, and each crash is followed by a reopen and
/// resume on the real disk, which must end with the result and log bytes
/// of a run that never crashed.
#[test]
fn resume_is_bit_identical_after_a_crash_at_every_store_operation() {
    let m = model();
    let cfg = IterativeConfig {
        n_init: 100,
        n_delta: 20,
        acceptable_loss: 0.001,
        max_samples: 180,
        parallelism: Parallelism::new(2),
        ..IterativeConfig::default()
    };
    let seed = 33;
    let dir = scratch("crash-points");
    let run = |store: &CampaignStore| {
        run_iterative_persistent(&m, &cfg, seed, store).expect("campaign survives a dead disk")
    };
    // Opens the store on the real disk and runs the campaign to the end.
    let resume = |dir: &Path| {
        let result = run(&CampaignStore::open(dir).expect("recovery after a crash"));
        (result, fs::read(dir.join(WAL_FILE)).expect("log exists"))
    };

    // (a) The campaign itself, crashed after every one of its mutations.
    let _ = fs::remove_dir_all(&dir);
    let (reference, reference_wal) = resume(&dir);
    let _ = fs::remove_dir_all(&dir);
    let campaign_ops = crash_after(&dir, None, |store| {
        run(store);
    });
    assert!(
        fs::read(dir.join(WAL_FILE)).expect("log exists") == reference_wal,
        "a disk that never dies journals the uninterrupted log"
    );
    assert!(campaign_ops > 100, "campaign made {campaign_ops} mutations");
    for k in 0..=campaign_ops {
        let _ = fs::remove_dir_all(&dir);
        crash_after(&dir, Some(k), |store| {
            // A dying disk never perturbs the campaign running on it.
            let dying = run(store);
            assert_same_result(&dying, &reference, &format!("disk dead after op {k}"));
        });
        let (resumed, wal_bytes) = resume(&dir);
        assert_same_result(
            &resumed,
            &reference,
            &format!("campaign crash after op {k}"),
        );
        assert!(wal_bytes == reference_wal, "log differs after op {k}");
    }

    // (b) The open that repairs interior damage, crashed after every one
    // of its mutations.
    let mut damaged = reference_wal.clone();
    let frames = frame_ends(&damaged);
    damaged[frames[frames.len() / 2] + wal::FRAME_HEADER_LEN + 2] ^= 0x20;
    let with_damage = |dir: &Path| {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).expect("scratch dir");
        fs::write(dir.join(WAL_FILE), &damaged).expect("damaged log");
    };
    let sidecar = |dir: &Path| wal::read_quarantine(&RealIo, &dir.join(QUARANTINE_FILE));
    with_damage(&dir);
    let (repaired, repaired_wal) = resume(&dir);
    assert!(
        repaired_wal != reference_wal,
        "the flip cost a journaled record"
    );
    let quarantined = sidecar(&dir);
    assert_eq!(quarantined.len(), 1, "one damaged frame");
    with_damage(&dir);
    let repair_ops = crash_after(&dir, None, |_| {});
    assert!(repair_ops >= 5, "repair made {repair_ops} mutations");
    for k in 0..=repair_ops {
        with_damage(&dir);
        crash_after(&dir, Some(k), |_| {});
        let (resumed, wal_bytes) = resume(&dir);
        assert_same_result(&resumed, &repaired, &format!("repair crash after op {k}"));
        assert!(wal_bytes == repaired_wal, "log differs after repair op {k}");
        // A repair cut short is redone from the start, so the sidecar
        // may hold the damaged frame twice, but nothing else.
        let entries = sidecar(&dir);
        assert!(
            !entries.is_empty() && entries.iter().all(|e| *e == quarantined[0]),
            "sidecar after repair op {k}: {} entries",
            entries.len()
        );
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}
