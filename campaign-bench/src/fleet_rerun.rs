//! `fleet-warm-rerun`: reruns of already-measured campaigns through a
//! coordinator and a fresh loopback worker. The worker consults one
//! federation peer — a worker serving the original campaign's store —
//! before evaluating a leased slot, so a rerun spends no model
//! evaluations: its cost is lease RPCs, one peer lookup per slot, shard
//! WAL writes and the merge. A campaign's time covers starting its
//! worker (a fresh store, so nothing replays from a shard) through the
//! merged result.
//!
//! One worker keeps the fabric on one core: the same rerun through three
//! workers spreads over both cores of a small machine, where it measures
//! the neighbours' load as much as the fabric.
//!
//! The original campaigns are measured offline, untimed, and a peer
//! worker is started over each one's store. Set-up is a cold run: the
//! fixed history campaign measured through the coordinator and a fresh
//! worker with no peers — what a campaign costs before anything is
//! federated. Its merged WAL must be byte-identical to the offline
//! driver's.

use crate::common::{
    admitted_spec, campaign_seed, check_best, measure_offline, ns_since, obs_for, result_ok,
    wal_size, History, Layers, Outcome, MIN_CAMPAIGNS, POOL, SETUP_REPEATS,
};
use crate::Args;
use optassign::iterative::IterativeResult;
use optassign::Parallelism;
use optassign_fleet::{run_fleet_campaign, FleetConfig, Worker, WorkerConfig};
use optassign_obs::Obs;
use optassign_optd::CampaignSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn start_worker(dir: &Path, peers: Vec<String>, obs: &Obs) -> Result<Worker, String> {
    let config = WorkerConfig {
        data_dir: dir.to_path_buf(),
        peers,
        parallelism: Parallelism::serial(),
        ..WorkerConfig::default()
    };
    Worker::start(&config, obs).map_err(|e| e.to_string())
}

/// A measured campaign and the federation peer serving its store.
struct Primed {
    spec: CampaignSpec,
    result: IterativeResult,
    peer: Worker,
    peer_obs: Obs,
}

/// Measures campaign `index` offline and starts a peer over its store.
fn prime(args: &Args, index: u64, scratch: &Path) -> Result<Primed, String> {
    let spec = admitted_spec("fleet", campaign_seed(args.seed, 0, index))?;
    let dir = scratch.join(format!("peer-{index}"));
    let result = measure_offline(&spec, &spec.model.build(), &dir)?;
    let peer_obs = obs_for(args.trace);
    let peer = start_worker(&dir, Vec::new(), &peer_obs)?;
    Ok(Primed {
        spec,
        result,
        peer,
        peer_obs,
    })
}

/// Runs `spec` through a coordinator and a fresh worker consulting
/// `peers`; returns its wall-clock, result and merged store directory.
fn run_on_fleet(
    spec: &CampaignSpec,
    peers: Vec<String>,
    dir: &Path,
    coord_obs: &Obs,
    worker_obs: &Obs,
) -> Result<(u64, IterativeResult, PathBuf), String> {
    let start = Instant::now();
    let worker = start_worker(&dir.join("worker"), peers, worker_obs)?;
    let config = FleetConfig::new(dir.join("coord"), vec![worker.ctrl_addr()]);
    let outcome = run_fleet_campaign(spec, &config, coord_obs).map_err(|e| e.to_string())?;
    drop(worker);
    Ok((ns_since(start), outcome.result, outcome.merged_dir))
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let mut out = Outcome {
        checks_ok: true,
        ..Outcome::default()
    };
    let history = History::measure(scratch)?;
    for i in 0..SETUP_REPEATS {
        let dir = scratch.join(format!("cold-{i}"));
        let (elapsed, _, merged) = run_on_fleet(
            &history.spec,
            Vec::new(),
            &dir,
            &Obs::disabled(),
            &Obs::disabled(),
        )?;
        out.setup_ns.push(elapsed);
        out.checks_ok &= history.matches(&merged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let sources = (0..POOL)
        .map(|index| prime(args, index, scratch))
        .collect::<Result<Vec<Primed>, String>>()?;
    let coord_obs = obs_for(args.trace);
    let worker_obs = obs_for(args.trace);
    let mut layers = Layers::default();

    let mut bests = Vec::new();
    let window = Instant::now();
    let mut index = 0usize;
    while index < MIN_CAMPAIGNS || window.elapsed() < args.run_for {
        let primed = &sources[index % sources.len()];
        let dir = scratch.join(format!("rerun-{index}"));
        index += 1;
        out.attempted += 1;
        let peers = vec![primed.peer.peer_addr()];
        match run_on_fleet(&primed.spec, peers, &dir, &coord_obs, &worker_obs) {
            // A warm rerun reproduces the original campaign exactly and
            // measures nothing itself.
            Ok((elapsed, r, merged))
                if result_ok(&r, &primed.spec)
                    && r.evaluations == 0
                    && r.samples_used == primed.result.samples_used
                    && r.best_performance.to_bits() == primed.result.best_performance.to_bits() =>
            {
                out.finished(elapsed, r.samples_used);
                layers.wal_bytes += wal_size(&merged);
                bests.push((r.best_assignment, r.best_performance));
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                eprintln!("rerun {index}: {e}");
                out.failed += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.window_ns = ns_since(window);
    for (assignment, performance) in bests {
        if !check_best(
            &history.model,
            assignment.contexts(),
            performance,
            &mut layers,
        ) {
            out.failed += 1;
        }
    }

    layers.absorb(&coord_obs.metrics(), "");
    layers.absorb(&worker_obs.metrics(), "fleet_lease_measure_ns");
    // A peer answers the cache lookups the worker makes inside its lease
    // handler, so only the peers' request counts are added.
    for primed in &sources {
        layers.absorb_requests(&primed.peer_obs.metrics());
    }
    out.layers = layers;
    Ok(out)
}
