//! Fleet-fabric benchmarks: distributed campaign wall-clock at 1 vs 3
//! workers, and a warm federation rerun against a cold run.
//!
//! Both entries compare two full campaign runs through the coordinator,
//! so the ratios measure fabric behaviour, not raw evaluation speed:
//!
//! * `campaign_wallclock_3_workers` — scalar is the whole campaign
//!   driven through one loopback worker; batch is the same campaign
//!   split across three. The synthetic model is microseconds per
//!   evaluation, so lease HTTP round-trips dominate and the ratio
//!   mostly prices the fabric's per-lease overhead against the
//!   parallelism it buys.
//! * `warm_rerun_federation` — scalar is a cold run (every slot
//!   evaluated); batch is a rerun on fresh worker stores that resolve
//!   every slot from a federation peer serving the cold run's journal.
//!   Zero model evaluations, but one peer round-trip per unique slot,
//!   so the ratio prices federation lookups against evaluation.
//!
//! `--json <path>` writes the report the perf gate (`bench_gate`)
//! consumes; bench.sh gates it with a low floor like the optd bench —
//! the ratios hover around 1.0 by construction.

use optassign_bench::microbench::{bench, bench_report_json, group, BenchEntry};
use optassign_fleet::{run_fleet_campaign, FleetConfig, Worker, WorkerConfig};
use optassign_obs::{fleet_counters, Obs};
use optassign_optd::spec::CampaignSpec;
use std::path::{Path, PathBuf};

/// Small enough that a full campaign finishes in well under a second,
/// with a handful of extension rounds so leases actually flow.
const SPEC: &str = r#"{"tenant":"fleet-bench","seed":1201,
  "model":{"kind":"synthetic","tasks":16,"base_pps":2000000},
  "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.0005,
            "max_samples":600,"eval_budget":10000}}"#;

fn json_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(args.next().expect("--json needs a path"));
        }
    }
    None
}

fn start_worker(dir: &Path, peers: Vec<String>, obs: &Obs) -> Worker {
    let config = WorkerConfig {
        data_dir: dir.to_path_buf(),
        peers,
        ..WorkerConfig::default()
    };
    Worker::start(&config, obs).expect("bench worker")
}

/// One full campaign: fresh worker stores (a reused shard would turn
/// the run into a replay) and a fresh coordinator data dir. Returns
/// evaluations performed and the coordinator's journal directory.
fn run_campaign(
    root: &Path,
    tag: &str,
    workers: usize,
    peers: Vec<String>,
    obs: &Obs,
) -> (usize, PathBuf) {
    let spec = CampaignSpec::from_json(SPEC).expect("bench spec");
    let dir = root.join(tag);
    let fleet: Vec<Worker> = (0..workers)
        .map(|w| start_worker(&dir.join(format!("w{w}")), peers.clone(), obs))
        .collect();
    let addrs = fleet.iter().map(Worker::ctrl_addr).collect();
    let outcome = run_fleet_campaign(&spec, &FleetConfig::new(dir.join("coord"), addrs), obs)
        .expect("bench campaign");
    drop(fleet);
    (outcome.result.evaluations, outcome.merged_dir)
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.metrics()
        .counters()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

fn main() {
    let root = std::env::temp_dir().join(format!("fleet-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("bench scratch dir");
    let obs = Obs::metrics_only();
    let mut entries = Vec::new();

    group("fleet_campaign_wallclock");
    // Evaluation counts are deterministic (same spec, same seed, and the
    // campaign journal is worker-count-invariant), so one priming run
    // prices every timed run.
    let (prime_evals, _) = run_campaign(&root, "prime", 1, Vec::new(), &obs);
    let total_evals = prime_evals as f64;
    println!("  └ {prime_evals} evaluations per campaign");
    let _ = std::fs::remove_dir_all(root.join("prime"));

    let mut run = 0usize;
    let one_ns = bench("fleet/campaign/1_worker", || {
        run += 1;
        let tag = format!("one-{run}");
        let out = run_campaign(&root, &tag, 1, Vec::new(), &obs);
        let _ = std::fs::remove_dir_all(root.join(&tag));
        out.0
    }) / total_evals;
    let mut run = 0usize;
    let three_ns = bench("fleet/campaign/3_workers", || {
        run += 1;
        let tag = format!("three-{run}");
        let out = run_campaign(&root, &tag, 3, Vec::new(), &obs);
        let _ = std::fs::remove_dir_all(root.join(&tag));
        out.0
    }) / total_evals;
    println!(
        "  └ 3-worker wall-clock vs 1 worker: {:.2}x (ratio {:.3})",
        three_ns / one_ns,
        one_ns / three_ns
    );
    entries.push(BenchEntry {
        name: "fleet/campaign_wallclock_3_workers".to_string(),
        baseline_ns: one_ns,
        candidate_ns: three_ns,
    });

    group("fleet_warm_federation");
    // A long-lived federation source serving the primed campaign's
    // journal; every warm iteration gets fresh worker stores whose
    // slots all resolve through this peer.
    let (_, merged) = run_campaign(&root, "seed", 1, Vec::new(), &obs);
    let source_dir = root.join("source");
    std::fs::create_dir_all(&source_dir).expect("source dir");
    std::fs::copy(merged.join("campaign.wal"), source_dir.join("campaign.wal"))
        .expect("seeding federation source");
    let source = start_worker(&source_dir, Vec::new(), &Obs::metrics_only());
    let peers = vec![source.peer_addr()];

    let mut run = 0usize;
    let cold_ns = bench("fleet/rerun/cold", || {
        run += 1;
        let tag = format!("cold-{run}");
        let out = run_campaign(&root, &tag, 1, Vec::new(), &obs);
        let _ = std::fs::remove_dir_all(root.join(&tag));
        out.0
    }) / total_evals;
    let warm_obs = Obs::metrics_only();
    let mut run = 0usize;
    let warm_ns = bench("fleet/rerun/warm_federated", || {
        run += 1;
        let tag = format!("warm-{run}");
        let out = run_campaign(&root, &tag, 1, peers.clone(), &warm_obs);
        let _ = std::fs::remove_dir_all(root.join(&tag));
        out.0
    }) / total_evals;
    let peer_hits = counter(&warm_obs, fleet_counters::PEER_HITS);
    let warm_evals = counter(&warm_obs, fleet_counters::SLOT_EVALS);
    println!(
        "  └ warm federation hit rate: {:.1}% ({peer_hits} peer hits, {warm_evals} evaluations)",
        100.0 * peer_hits as f64 / (peer_hits + warm_evals).max(1) as f64
    );
    assert_eq!(warm_evals, 0, "a warm federated rerun must not evaluate");
    entries.push(BenchEntry {
        name: "fleet/warm_rerun_federation".to_string(),
        baseline_ns: cold_ns,
        candidate_ns: warm_ns,
    });

    drop(source);
    let _ = std::fs::remove_dir_all(&root);

    if let Some(path) = json_path() {
        let report = bench_report_json("fleet", optassign::Parallelism::DEFAULT_BATCH, &entries);
        std::fs::write(&path, &report).expect("write bench report");
        println!("\nwrote {path}");
    }
}
