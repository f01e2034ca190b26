//! `chaos_soak` — end-to-end storage-fault campaign against the durable
//! store.
//!
//! Drives the full chaos fabric in one deterministic run: every round
//! runs a persistent campaign of its own (its own study seed, its own
//! stores) on a [`SyntheticModel`] under [`FaultyIo`] — short writes,
//! ENOSPC, silent bit flips, lost syncs, and a disk that dies after a
//! seeded op budget — then crashes (torn tails of unsynced bytes) and
//! runs `fsck --repair`. A fresh campaign gives each round's fault budget
//! store mutations to land in; a round that injects no fault fails the
//! soak. Each round then fills its campaign in cleanly, and a guaranteed
//! interior bit flip verifies quarantine end-to-end; every resume must
//! reproduce the round's fault-free baseline bit for bit.
//!
//! Everything is derived from `--seed`, so a failure reproduces exactly.
//! Prints `chaos_soak: OK (...)` and exits 0 on success; panics (exit
//! 101) on any invariant violation.
//!
//! Run: `cargo run --release -p optassign-bench --bin chaos_soak
//! [--scale smoke|full] [--seed N]`

use optassign::model::SyntheticModel;
use optassign::persist::CampaignStore;
use optassign::study::SampleStudy;
use optassign::{Parallelism, Topology};
use optassign_bench::BASE_SEED;
use optassign_obs::Obs;
use optassign_store::io::{FaultyIo, IoFaultPlan, RealIo};
use optassign_store::{fsck, wal, WAL_FILE};
use std::path::Path;

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

    let mut quarantined_total = 0u64;
    let mut torn_total = 0u64;
    for round in 0..scale.rounds {
        // Each round's campaign gets stores of its own, so a round's
        // fault budget lands in its own campaign's mutations.
        let round_dir = work.join(format!("round-{round}"));
        let study_seed = seed ^ mix(round ^ 0x5EED);
        let campaign = |store: &CampaignStore, what: &str| -> Vec<u64> {
            let study = SampleStudy::run_with(&model, scale.n, study_seed, par, &obs, Some(store))
                .unwrap_or_else(|e| panic!("round {round}: {what} failed: {e}"));
            study.performances().iter().map(|p| p.to_bits()).collect()
        };

        // ---- fault-free baseline -------------------------------------
        let baseline_dir = round_dir.join("baseline");
        std::fs::create_dir_all(&baseline_dir).expect("creating baseline dir");
        let store =
            CampaignStore::open_with(&baseline_dir, &RealIo, &obs).expect("baseline store opens");
        let baseline = campaign(&store, "baseline campaign");
        drop(store);

        // ---- faults, crash, repair -----------------------------------
        let chaos_dir = round_dir.join("chaos");
        std::fs::create_dir_all(&chaos_dir).expect("creating chaos dir");
        let round_seed = seed ^ mix(round + 1);
        // A campaign makes at least one store mutation per slot, so a
        // budget below `n` kills the disk mid-campaign.
        let budget = 8 + mix(round_seed) % (scale.n as u64 - 8);
        let plan = IoFaultPlan {
            crash_after_ops: Some(budget),
            ..IoFaultPlan::harsh(round_seed)
        };
        let faulty = FaultyIo::new(plan);
        match CampaignStore::open_with(&chaos_dir, &faulty, &obs) {
            // Storage faults are swallowed and counted by the store; the
            // campaign itself must still complete.
            Ok(store) => assert_eq!(
                campaign(&store, "campaign under storage faults"),
                baseline,
                "round {round}: output diverged under storage faults"
            ),
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
            "[chaos] round {round}: budget {budget} of {} ops → {} enospc, {} short, {} bit-flips, \
             {} lost syncs, {} dead ops; crash tore {torn} files; fsck kept {} records, \
             quarantined {} frames, truncated {} tail bytes",
            stats.ops,
            stats.enospc,
            stats.short_writes,
            stats.corrupted,
            stats.lost_syncs,
            stats.dead_ops,
            report.wal_records,
            report.quarantined_frames,
            report.tail_truncated_bytes
        );
        let injected =
            stats.enospc + stats.short_writes + stats.corrupted + stats.lost_syncs + stats.dead_ops;
        assert!(
            injected > 0,
            "round {round}: no storage fault landed in its {} store ops",
            stats.ops
        );

        // ---- guaranteed quarantine round-trip ------------------------
        // Complete the campaign cleanly so the log holds every record,
        // flip one interior bit, and check fsck moves exactly that
        // damage aside; the resumed campaign must match the baseline.
        let store =
            CampaignStore::open_with(&chaos_dir, &RealIo, &obs).expect("repaired store opens");
        assert_eq!(
            campaign(&store, "clean fill-in"),
            baseline,
            "round {round}: clean fill-in diverged from the fault-free baseline"
        );
        drop(store);
        assert!(
            flip_interior_bit(&chaos_dir.join(WAL_FILE), round_seed ^ 0xF11B),
            "filled log must be long enough to corrupt"
        );
        let report = fsck(&chaos_dir, &RealIo, true, &obs).expect("fsck after bit flip");
        assert!(
            report.quarantined_frames >= 1,
            "round {round}: interior bit flip must be quarantined, got {report:?}"
        );
        assert!(report.repaired, "fsck --repair must rewrite the log");
        quarantined_total += report.quarantined_frames;

        let store = CampaignStore::open_with(&chaos_dir, &RealIo, &obs).expect("final store opens");
        assert_eq!(
            campaign(&store, "final resume"),
            baseline,
            "round {round}: resumed campaign must be bit-identical to the fault-free baseline"
        );
        drop(store);
    }

    std::fs::remove_dir_all(&work).expect("cleaning work dir");
    println!(
        "chaos_soak: OK (scale {}, rounds {}, quarantined {} frames, torn {} bytes)",
        scale.name, scale.rounds, quarantined_total, torn_total
    );
}
