//! Fault-tolerant multi-shard merge contract (`DESIGN.md` §9).
//!
//! The contract under test: `merge_campaigns` over any arrangement of
//! shard stores produces one canonical store — byte-identical under
//! shard permutation and under re-merge — and a store merged from
//! disjoint shards of a campaign replays exactly like the single-node
//! store, at any worker count, without evaluating the model. Damage in
//! a shard (a corrupt interior frame) is salvaged around, reported, and
//! must not disturb any of the above.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use optassign::model::{PerformanceModel, SyntheticModel};
use optassign::persist::CampaignStore;
use optassign::study::SampleStudy;
use optassign::{Assignment, Parallelism, Topology};
use optassign_obs::Obs;
use optassign_store::io::RealIo;
use optassign_store::merge::{merge_campaigns, read_shard};
use optassign_store::{wal, WAL_FILE};

const SEED: u64 = 77;
const N: usize = 120;

fn model() -> SyntheticModel {
    SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6)
}

/// Zero placement jitter: symmetric placements measure identically, so a
/// content-addressed cache hit is exact. The damaged-shard test refills
/// a lost record from the merged cache and needs that exactness (the
/// same contract `store_resume.rs` pins for single-node caching).
fn invariant_model() -> SyntheticModel {
    let mut m = model();
    m.jitter = 0.0;
    m
}

/// Counts evaluations so "replays without touching the model" is
/// checkable, not aspirational.
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

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optassign-mergefab-{tag}-{}", std::process::id()))
}

fn fresh(dir: &Path) -> PathBuf {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("scratch dir");
    dir.to_path_buf()
}

/// Runs the reference single-node campaign into `dir` and returns its
/// performance bits.
fn reference_campaign(dir: &Path, m: &SyntheticModel) -> Vec<u64> {
    let store = CampaignStore::open(dir).expect("fresh store");
    let study = SampleStudy::run_with(
        m,
        N,
        SEED,
        Parallelism::default(),
        &Obs::disabled(),
        Some(&store),
    )
    .expect("reference campaign");
    study.performances().iter().map(|p| p.to_bits()).collect()
}

/// Splits the store at `src` into `parts` disjoint shard stores,
/// round-robin by record, and returns the shard directories.
fn shard(src: &Path, tag: &str, parts: usize) -> Vec<PathBuf> {
    let scan = read_shard(src, &RealIo).expect("reading source store");
    assert!(scan.is_clean(), "reference store must be undamaged");
    let dirs: Vec<PathBuf> = (0..parts)
        .map(|s| fresh(&scratch(&format!("{tag}-shard{s}"))))
        .collect();
    for (s, dir) in dirs.iter().enumerate() {
        let (mut log, _, _) =
            wal::open_log(&RealIo, &dir.join(WAL_FILE)).expect("creating shard log");
        for record in scan.records.iter().skip(s).step_by(parts) {
            log.append(record).expect("sharding record");
        }
        log.sync().expect("syncing shard");
    }
    dirs
}

fn wal_bytes(dir: &Path) -> Vec<u8> {
    fs::read(dir.join(WAL_FILE)).expect("reading merged log")
}

/// Byte spans of every frame in a log, parsed independently of the
/// store crate's scanner.
fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(&bytes[..8], b"OASTWAL1", "log magic");
    let mut spans = Vec::new();
    let mut off = 8;
    while off + 12 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let end = off + 12 + len;
        if end > bytes.len() {
            break;
        }
        spans.push((off, end));
        off = end;
    }
    spans
}

#[test]
fn merge_is_permutation_invariant_and_idempotent_for_disjoint_shards() {
    let ref_dir = fresh(&scratch("perm-ref"));
    reference_campaign(&ref_dir, &model());
    let shards = shard(&ref_dir, "perm", 3);

    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut canonical: Option<Vec<u8>> = None;
    for (i, order) in orders.iter().enumerate() {
        let dest = fresh(&scratch(&format!("perm-out{i}")));
        let arranged: Vec<PathBuf> = order.iter().map(|&s| shards[s].clone()).collect();
        let report = merge_campaigns(&arranged, &dest).expect("merge");
        assert_eq!(report.shards, 3);
        assert_eq!(report.duplicates, 0, "disjoint shards share no records");
        assert_eq!(report.damaged_shards, 0);
        let bytes = wal_bytes(&dest);
        match &canonical {
            None => canonical = Some(bytes),
            Some(expect) => assert_eq!(
                &bytes, expect,
                "merge output differs for shard order {order:?}"
            ),
        }
    }

    // Re-merging a merged store is a fixed point, and re-merging the
    // merged store *with* its own inputs only finds duplicates.
    let merged = scratch("perm-out0");
    let re_dir = fresh(&scratch("perm-re"));
    let re = merge_campaigns(std::slice::from_ref(&merged), &re_dir).expect("re-merge");
    assert_eq!(re.duplicates, 0);
    assert_eq!(
        wal_bytes(&merged),
        wal_bytes(&re_dir),
        "re-merge must be a fixed point"
    );
    let again_dir = fresh(&scratch("perm-again"));
    let mut inputs = vec![merged.clone()];
    inputs.extend(shards.iter().cloned());
    let again = merge_campaigns(&inputs, &again_dir).expect("merge with inputs");
    assert_eq!(wal_bytes(&merged), wal_bytes(&again_dir));
    assert_eq!(
        again.duplicates,
        again.measurements + again.batch_ends + again.cache_entries,
        "every shard record must already be present in the merged store"
    );
}

#[test]
fn merged_shards_replay_like_the_single_node_run_at_1_and_4_workers() {
    let ref_dir = fresh(&scratch("replay-ref"));
    let reference_bits = reference_campaign(&ref_dir, &model());
    let shards = shard(&ref_dir, "replay", 3);

    for workers in [1usize, 4] {
        let dest = fresh(&scratch(&format!("replay-out{workers}")));
        merge_campaigns(&shards, &dest).expect("merge");
        let store = CampaignStore::open(&dest).expect("merged store opens");
        let counting = Counting::new(model());
        let study = SampleStudy::run_with(
            &counting,
            N,
            SEED,
            Parallelism::new(workers),
            &Obs::disabled(),
            Some(&store),
        )
        .expect("replay from merged store");
        assert_eq!(
            counting.count(),
            0,
            "a complete merged campaign must replay without evaluating ({workers} workers)"
        );
        let bits: Vec<u64> = study.performances().iter().map(|p| p.to_bits()).collect();
        assert_eq!(
            bits, reference_bits,
            "merged replay diverged from the single-node run ({workers} workers)"
        );
    }
}

#[test]
fn a_damaged_shard_is_salvaged_and_the_merge_stays_order_invariant() {
    let ref_dir = fresh(&scratch("dmg-ref"));
    let reference_bits = reference_campaign(&ref_dir, &invariant_model());
    let shards = shard(&ref_dir, "dmg", 3);

    // Corrupt one interior frame of the middle shard: a later intact
    // frame exists, so the scanner must quarantine, not truncate.
    let victim = shards[1].join(WAL_FILE);
    let mut bytes = fs::read(&victim).expect("shard log");
    let spans = frame_spans(&bytes);
    assert!(spans.len() > 3, "shard must hold several frames");
    let (start, _) = spans[1];
    bytes[start + 12] ^= 0x40;
    fs::write(&victim, &bytes).expect("corrupting shard");

    let forward = fresh(&scratch("dmg-fwd"));
    let backward = fresh(&scratch("dmg-bwd"));
    let fwd = merge_campaigns(&shards, &forward).expect("forward merge");
    let reversed: Vec<PathBuf> = shards.iter().rev().cloned().collect();
    let bwd = merge_campaigns(&reversed, &backward).expect("backward merge");
    assert_eq!(
        fwd.damaged_shards, 1,
        "the corrupted shard must be reported"
    );
    assert_eq!(fwd.quarantined_frames, 1);
    assert_eq!(
        wal_bytes(&forward),
        wal_bytes(&backward),
        "damage must not break permutation invariance"
    );
    assert_eq!(fwd.measurements, bwd.measurements);

    // The merge only reads shards: the corrupted shard keeps its exact
    // bytes and no quarantine sidecar appears next to it.
    assert_eq!(fs::read(&victim).expect("shard log"), bytes);
    assert!(!wal::quarantine_path(&victim).exists());

    // Exactly one measurement fell with the corrupt frame — but its
    // content-addressed cache entry survived in another shard, so the
    // replay fills the hole from the cache and never touches the model.
    assert_eq!(fwd.measurements, N as u64 - 1);
    let store = CampaignStore::open(&forward).expect("merged store opens");
    let counting = Counting::new(invariant_model());
    let study = SampleStudy::run_with(
        &counting,
        N,
        SEED,
        Parallelism::default(),
        &Obs::disabled(),
        Some(&store),
    )
    .expect("replay");
    assert_eq!(
        counting.count(),
        0,
        "the quarantined slot must be refilled from the merged cache"
    );
    let bits: Vec<u64> = study.performances().iter().map(|p| p.to_bits()).collect();
    assert_eq!(bits, reference_bits);
}

/// A fleet worker may compact its store while the coordinator pulls its
/// shard. Compaction publishes the snapshot segment atomically (rename)
/// and only then truncates the log, and `read_shard` reads the log
/// before listing segments — so a concurrent merge must observe the
/// shard either pre-compaction, post-compaction, or in the
/// segment-plus-full-log window, which cache-entry subsumption collapses
/// back to the pre-compaction bytes. Never anything torn in between.
#[test]
fn merge_concurrent_with_compaction_yields_pre_or_post_bytes_never_torn() {
    let ref_dir = fresh(&scratch("cc-ref"));
    reference_campaign(&ref_dir, &model());
    let shards = shard(&ref_dir, "cc", 3);

    // Both legitimate outcomes, computed without any concurrency. Post
    // loses the compacted shard's measurements (its cache snapshot only
    // keeps values), so the two differ — the assertion below cannot pass
    // vacuously.
    let pre_dir = fresh(&scratch("cc-pre"));
    let pre_report = merge_campaigns(&shards, &pre_dir).expect("pre-compaction merge");
    let pre = wal_bytes(&pre_dir);

    let compacted = fresh(&scratch("cc-compacted"));
    fs::copy(shards[1].join(WAL_FILE), compacted.join(WAL_FILE)).expect("copying shard");
    CampaignStore::open(&compacted)
        .expect("shard store opens")
        .compact()
        .expect("offline compaction");
    let post_inputs = [shards[0].clone(), compacted, shards[2].clone()];
    let post_dir = fresh(&scratch("cc-post"));
    let post_report = merge_campaigns(&post_inputs, &post_dir).expect("post-compaction merge");
    let post = wal_bytes(&post_dir);
    assert_ne!(
        pre, post,
        "compaction must change what the shard contributes"
    );
    assert!(post_report.measurements < pre_report.measurements);

    for iteration in 0..20u64 {
        let live = fresh(&scratch(&format!("cc-live{iteration}")));
        fs::copy(shards[1].join(WAL_FILE), live.join(WAL_FILE)).expect("copying shard");
        let store = Arc::new(CampaignStore::open(&live).expect("shard store opens"));
        let racer = Arc::clone(&store);
        // The stagger sweeps the race window: early iterations let
        // compaction win the race, later ones let the merge read first.
        let stagger = Duration::from_micros(iteration * 60);
        let compactor = std::thread::spawn(move || {
            std::thread::sleep(stagger);
            racer.compact().expect("concurrent compaction");
        });
        let inputs = [shards[0].clone(), live.clone(), shards[2].clone()];
        let dest = fresh(&scratch(&format!("cc-out{iteration}")));
        merge_campaigns(&inputs, &dest).expect("merge during compaction must not error");
        compactor.join().expect("compactor thread");
        let bytes = wal_bytes(&dest);
        assert!(
            bytes == pre || bytes == post,
            "iteration {iteration}: merge concurrent with compaction produced torn output \
             ({} bytes; pre is {} bytes, post is {} bytes)",
            bytes.len(),
            pre.len(),
            post.len()
        );
    }
}
