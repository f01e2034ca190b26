//! `chaos_soak` — end-to-end storage-fault campaign against the durable
//! store.
//!
//! Drives the full chaos fabric in one deterministic run:
//!
//! * **Phase A (kill / corrupt / resume):** a persistent campaign on a
//!   [`SyntheticModel`] is run repeatedly under [`FaultyIo`] — short
//!   writes, ENOSPC, silent bit flips, lost syncs, and a disk that dies
//!   after a seeded op budget — with a crash (torn tails of unsynced
//!   bytes) and an `fsck --repair` pass between rounds. A guaranteed
//!   interior bit flip then verifies quarantine end-to-end, and the final
//!   clean resume must reproduce the fault-free baseline bit for bit.
//! * **Phase B (shard merge):** the surviving log is split round-robin
//!   into two shard stores, one shard is corrupted, and the shards are
//!   merged in both orders. The merged logs must be byte-identical under
//!   permutation and re-merge, and must replay to the baseline.
//!
//! Everything is derived from `--seed`, so a failure reproduces exactly.
//! Prints `chaos_soak: OK (...)` and exits 0 on success; panics (exit
//! 101) on any invariant violation.
//!
//! Run: `cargo run --release -p optassign-bench --bin chaos_soak
//! [--scale smoke|full] [--seed N]`

use optassign::model::SyntheticModel;
use optassign::persist::{self, CampaignStore};
use optassign::study::SampleStudy;
use optassign::{Parallelism, PerformanceModel, Topology};
use optassign_bench::BASE_SEED;
use optassign_obs::Obs;
use optassign_store::io::{FaultyIo, IoFaultPlan, RealIo};
use optassign_store::{fsck, merge, wal, WAL_FILE};
use std::path::Path;
use std::sync::Arc;

/// SplitMix64 — the bin-local deterministic knob generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flips one seeded bit in the first half of the log body (past the
/// magic) — guaranteed interior damage with a later intact frame to
/// resync on, so the next repair quarantines rather than truncates.
/// Returns false when the log is too short to hold an interior frame.
fn flip_interior_bit(path: &Path, seed: u64) -> bool {
    let Ok(mut bytes) = std::fs::read(path) else {
        return false;
    };
    let body = bytes.len().saturating_sub(wal::WAL_MAGIC.len());
    if body < 2 * wal::FRAME_HEADER_LEN {
        return false;
    }
    let offset = wal::WAL_MAGIC.len() + (mix(seed) % (body as u64 / 2)) as usize;
    bytes[offset] ^= 1 << (mix(seed ^ 0x0F) % 8);
    std::fs::write(path, &bytes).expect("rewriting corrupted log");
    true
}

fn read_wal_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join(WAL_FILE)).expect("reading merged log")
}

struct Scale {
    name: &'static str,
    tasks: usize,
    n: usize,
    rounds: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale {
        name: "smoke",
        tasks: 8,
        n: 48,
        rounds: 4,
    };
    let mut seed = BASE_SEED ^ 0xC4A0_55AC;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = match args[i + 1].as_str() {
                    "smoke" => scale,
                    "full" => Scale {
                        name: "full",
                        tasks: 10,
                        n: 400,
                        rounds: 8,
                    },
                    other => {
                        eprintln!("chaos_soak: unknown scale {other:?} (want smoke|full)");
                        std::process::exit(1);
                    }
                };
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().expect("--seed wants an integer");
                i += 2;
            }
            other => {
                eprintln!("chaos_soak: unknown argument {other:?}");
                eprintln!("usage: chaos_soak [--scale smoke|full] [--seed N]");
                std::process::exit(1);
            }
        }
    }

    let par = Parallelism::from_env().unwrap_or(Parallelism::new(2));
    let model = SyntheticModel::new(Topology::ultrasparc_t2(), scale.tasks, 1.0e6);
    let obs = Obs::metrics_only();
    let work = std::env::temp_dir().join(format!(
        "optassign-chaos-{seed:016x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    eprintln!(
        "[chaos] scale {} (tasks = {}, n = {}, rounds = {}, {} workers), seed {seed:#x}",
        scale.name, scale.tasks, scale.n, scale.rounds, par.workers
    );

    // ---- Phase A: fault-free baseline ---------------------------------
    let baseline_dir = work.join("baseline");
    std::fs::create_dir_all(&baseline_dir).expect("creating baseline dir");
    let store = CampaignStore::open_with(&baseline_dir, Arc::new(RealIo), &obs)
        .expect("baseline store opens");
    let baseline = SampleStudy::run_with(&model, scale.n, seed, par, &obs, Some(&store))
        .expect("baseline campaign runs");
    drop(store);
    let baseline_bits: Vec<u64> = baseline
        .performances()
        .iter()
        .map(|p| p.to_bits())
        .collect();

    // ---- Phase A: kill / corrupt / repair / resume loop ---------------
    let chaos_dir = work.join("chaos");
    std::fs::create_dir_all(&chaos_dir).expect("creating chaos dir");
    let mut quarantined_total = 0u64;
    let mut torn_total = 0u64;
    for round in 0..scale.rounds {
        let round_seed = seed ^ mix(round + 1);
        let budget = 24 + mix(round_seed) % 150;
        let plan = IoFaultPlan {
            crash_after_ops: Some(budget),
            ..IoFaultPlan::harsh(round_seed)
        };
        let faulty = FaultyIo::new(plan);
        match CampaignStore::open_with(&chaos_dir, Arc::new(faulty.clone()), &obs) {
            Ok(store) => {
                // Storage faults are swallowed and counted by the store;
                // the campaign itself must still complete.
                let study = SampleStudy::run_with(&model, scale.n, seed, par, &obs, Some(&store))
                    .expect("campaign survives storage faults");
                assert_eq!(
                    study
                        .performances()
                        .iter()
                        .map(|p| p.to_bits())
                        .collect::<Vec<_>>(),
                    baseline_bits,
                    "round {round}: output diverged under storage faults"
                );
                drop(store);
            }
            // The repair itself can hit the fault plan (dead disk, torn
            // repair write); the RealIo fsck below picks up the pieces.
            Err(e) => eprintln!("[chaos] round {round}: open failed under faults ({e})"),
        }
        let torn = faulty.crash().expect("crash truncation");
        let stats = faulty.stats();
        let report = fsck(&chaos_dir, &RealIo, true, &obs).expect("post-crash fsck");
        quarantined_total += report.quarantined_frames;
        torn_total += report.tail_truncated_bytes;
        eprintln!(
            "[chaos] round {round}: budget {budget} ops → {} enospc, {} short, {} bit-flips, \
             {} lost syncs, {} dead ops; crash tore {torn} files; fsck kept {} records, \
             quarantined {} frames, truncated {} tail bytes",
            stats.enospc,
            stats.short_writes,
            stats.corrupted,
            stats.lost_syncs,
            stats.dead_ops,
            report.wal_records,
            report.quarantined_frames,
            report.tail_truncated_bytes
        );
    }

    // ---- Phase A: guaranteed quarantine round-trip --------------------
    // Complete the campaign cleanly so the log holds every record, flip
    // one interior bit, and check fsck moves exactly that damage aside.
    let store =
        CampaignStore::open_with(&chaos_dir, Arc::new(RealIo), &obs).expect("repaired store opens");
    SampleStudy::run_with(&model, scale.n, seed, par, &obs, Some(&store))
        .expect("clean fill-in run");
    drop(store);
    assert!(
        flip_interior_bit(&chaos_dir.join(WAL_FILE), seed ^ 0xF11B),
        "filled log must be long enough to corrupt"
    );
    let report = fsck(&chaos_dir, &RealIo, true, &obs).expect("fsck after bit flip");
    assert!(
        report.quarantined_frames >= 1,
        "interior bit flip must be quarantined, got {report:?}"
    );
    assert!(report.repaired, "fsck --repair must rewrite the log");
    quarantined_total += report.quarantined_frames;

    let store =
        CampaignStore::open_with(&chaos_dir, Arc::new(RealIo), &obs).expect("final store opens");
    let resumed = SampleStudy::run_with(&model, scale.n, seed, par, &obs, Some(&store))
        .expect("final resume");
    drop(store);
    let resumed_bits: Vec<u64> = resumed.performances().iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        resumed_bits, baseline_bits,
        "resumed campaign must be bit-identical to the fault-free baseline"
    );
    assert!(
        quarantined_total >= 1,
        "the soak must exercise quarantine at least once"
    );
    eprintln!(
        "[chaos] phase A OK: {} records resume bit-identically after {} quarantined frames \
         and {} torn-tail bytes",
        scale.n, quarantined_total, torn_total
    );

    // ---- Phase B: fault-tolerant shard merge --------------------------
    let scan = merge::read_shard(&chaos_dir, &RealIo).expect("scanning surviving store");
    assert!(
        !scan.records.is_empty(),
        "phase B needs surviving records to shard"
    );
    let shard_dirs = [work.join("shard-a"), work.join("shard-b")];
    for (s, dir) in shard_dirs.iter().enumerate() {
        std::fs::create_dir_all(dir).expect("creating shard dir");
        let (mut log, _, _) =
            wal::open_log(&RealIo, &dir.join(WAL_FILE)).expect("creating shard log");
        for record in scan.records.iter().skip(s).step_by(shard_dirs.len()) {
            log.append(record).expect("sharding record");
        }
        log.sync().expect("syncing shard");
    }
    // One damaged shard: the merge must salvage around it.
    assert!(
        flip_interior_bit(&shard_dirs[0].join(WAL_FILE), seed ^ 0x5AAD),
        "shard log must be long enough to corrupt"
    );

    let campaign = persist::study_campaign_id(seed, scale.n, scale.tasks, model.topology());
    let ab_dir = work.join("merged-ab");
    let ba_dir = work.join("merged-ba");
    let re_dir = work.join("merged-re");
    let forward = [shard_dirs[0].clone(), shard_dirs[1].clone()];
    let backward = [shard_dirs[1].clone(), shard_dirs[0].clone()];
    let ab = merge::merge_campaigns_with(&forward, &ab_dir, &RealIo, Some(campaign))
        .expect("forward merge");
    let ba = merge::merge_campaigns_with(&backward, &ba_dir, &RealIo, Some(campaign))
        .expect("backward merge");
    assert_eq!(
        read_wal_bytes(&ab_dir),
        read_wal_bytes(&ba_dir),
        "merge must be invariant under shard permutation"
    );
    assert_eq!(ab.measurements, ba.measurements);
    assert!(
        ab.damaged_shards >= 1 && ab.quarantined_frames >= 1,
        "the corrupted shard must be tolerated, not hidden: {ab:?}"
    );
    let re = merge::merge_campaigns_with(
        std::slice::from_ref(&ab_dir),
        &re_dir,
        &RealIo,
        Some(campaign),
    )
    .expect("re-merge");
    assert_eq!(
        read_wal_bytes(&ab_dir),
        read_wal_bytes(&re_dir),
        "re-merging a merged store must be a fixed point"
    );
    assert_eq!(re.duplicates, 0, "a merged store holds no duplicates");

    let store =
        CampaignStore::open_with(&ab_dir, Arc::new(RealIo), &obs).expect("merged store opens");
    let merged = SampleStudy::run_with(&model, scale.n, seed, par, &obs, Some(&store))
        .expect("replay from merged store");
    drop(store);
    let merged_bits: Vec<u64> = merged.performances().iter().map(|p| p.to_bits()).collect();
    assert_eq!(
        merged_bits, baseline_bits,
        "merged shards must replay to the fault-free baseline"
    );

    std::fs::remove_dir_all(&work).expect("cleaning work dir");
    println!(
        "chaos_soak: OK (scale {}, rounds {}, quarantined {} frames, torn {} bytes, \
         merged {} measurements, {} duplicates dropped)",
        scale.name, scale.rounds, quarantined_total, torn_total, ab.measurements, ab.duplicates
    );
}
