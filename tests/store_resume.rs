//! Crash-recovery and resume contract of the durable campaign store.
//!
//! The contract under test (see `DESIGN.md` §8): a persistent campaign
//! killed at **any byte** of its write-ahead log and re-invoked with the
//! same arguments produces exactly the outputs of an uninterrupted run —
//! at any worker count, with or without an observability recorder — and
//! a completed campaign replays without evaluating the model at all.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::iterative::{
    run_iterative_obs, run_iterative_persistent, run_iterative_persistent_obs, IterativeConfig,
    IterativeResult,
};
use optassign::model::PerformanceModel;
use optassign::model::SyntheticModel;
use optassign::persist::CampaignStore;
use optassign::study::SampleStudy;
use optassign::{Assignment, Parallelism, Topology};
use optassign_obs::{MemoryRecorder, MonotonicClock, Obs};
use optassign_store::WAL_FILE;

const SEED: u64 = 21;

fn model() -> SyntheticModel {
    SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6)
}

/// A canonical-invariant variant (zero placement jitter): symmetric
/// placements measure identically, so content-addressed cache hits are
/// exact and persistent runs match plain ones bit for bit.
fn invariant_model() -> SyntheticModel {
    let mut m = model();
    m.jitter = 0.0;
    m
}

/// Counts evaluations so replay/cache behaviour is checkable.
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

#[test]
fn persistent_run_matches_plain_for_invariant_models() {
    let m = invariant_model();
    let dir = scratch("plain");
    let _ = fs::remove_dir_all(&dir);
    let plain = run_iterative_obs(&m, &config(2), SEED, &Obs::disabled()).expect("plain run");
    let store = CampaignStore::open(&dir).expect("fresh store");
    let persistent = run_iterative_persistent(&m, &config(2), SEED, &store).expect("persistent");
    assert_same_result(&persistent, &plain, "persistent vs plain");
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn compaction_keeps_the_evaluation_cache_hot() {
    let m = Counting::new(invariant_model());
    let dir = scratch("compact");
    let _ = fs::remove_dir_all(&dir);
    let store = CampaignStore::open(&dir).expect("fresh store");
    let cold = run_iterative_persistent(&m, &config(2), SEED, &store).expect("cold run");
    let cold_evals = m.count();
    let entries = store.cache_stats().entries;
    assert!(entries > 0);
    store.compact().expect("compaction");
    drop(store);

    // The journal is gone (compaction folds it into snapshot segments),
    // but the content-addressed cache still resolves every slot: the
    // rerun touches the model zero times and reproduces the campaign's
    // measured values (bookkeeping differs — cache hits consume no
    // attempts — which is why compaction is documented as a
    // between-campaigns operation).
    let store = CampaignStore::open(&dir).expect("reopen after compaction");
    assert_eq!(store.journaled_measurements(), 0, "journal was compacted");
    assert_eq!(store.cache_stats().entries, entries, "cache survived");
    let warm = run_iterative_persistent(&m, &config(1), SEED, &store).expect("warm run");
    assert_eq!(
        m.count(),
        cold_evals,
        "cache-hot rerun re-evaluated the model"
    );
    assert_eq!(warm.best_performance, cold.best_performance);
    assert_eq!(warm.best_assignment, cold.best_assignment);
    assert_eq!(warm.samples_used, cold.samples_used);
    assert_eq!(warm.converged, cold.converged);
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
