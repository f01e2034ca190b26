//! `fleet` — the distributed campaign fabric.
//!
//! ```text
//! fleet work --data DIR [--addr HOST:PORT] [--peer-addr HOST:PORT]
//!            [--addr-file PATH] [--peer-addr-file PATH]
//!            [--peers A,B,C] [--workers N] [--journal PATH]
//! fleet run  --spec FILE --data DIR --worker ADDR [--worker ADDR ...]
//!            [--journal PATH] [--serve HOST:PORT] [--serve-addr-file PATH]
//!            [--worker-peer ADDR ...]
//! ```
//!
//! `work` runs one worker until killed: a control endpoint taking
//! campaign installs and slot-range leases, and a federation endpoint
//! serving its evaluation cache. `run` drives one campaign spec across
//! the given workers through the same admission path as `optd offline`
//! and journals it into `DATA/merged` — a store byte-identical to the
//! single-node run. Rerun on the same `DATA`, it resumes that journal:
//! journaled slots replay and only the rest is leased.
//!
//! `--journal PATH` (both modes) writes the process's JSONL journal
//! with span tracing on, so coordinator→worker leases and federation
//! fetches carry `x-oast-trace` contexts and land in the journals as
//! `rpc_client`/`rpc_server` events. Tracing never perturbs the
//! campaign: the journal stays byte-identical with it on or off.
//!
//! Every endpoint a worker binds answers `GET /healthz`, `/metrics` and
//! `/metrics.json`. `--serve` (run mode) additionally starts the fleet
//! observability plane, which answers those three for the coordinator
//! plus `GET /v1/fleet/metrics` (instance-labelled, fleet-merged
//! Prometheus series) and `GET /v1/trace/merged` (one stitched Chrome
//! trace across coordinator and workers). With `--serve` given, the
//! process keeps serving after the campaign finishes, until killed, so
//! the final timeline stays inspectable. `--worker-peer` names the
//! workers' federation addresses to scrape (in worker order).

use optassign::Parallelism;
use optassign_fleet::{
    run_fleet_campaign, start_plane, FleetConfig, PlaneConfig, Worker, WorkerConfig,
};
use optassign_obs::{JsonlRecorder, MonotonicClock, Obs};
use optassign_optd::spec::CampaignSpec;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  fleet work --data DIR [--addr HOST:PORT] [--peer-addr HOST:PORT]
             [--addr-file PATH] [--peer-addr-file PATH] [--peers A,B,C] [--workers N]
             [--journal PATH]
  fleet run  --spec FILE --data DIR --worker ADDR [--worker ADDR ...]
             [--journal PATH] [--serve HOST:PORT] [--serve-addr-file PATH]
             [--worker-peer ADDR ...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match mode.as_str() {
        "work" => work(&args[1..]),
        "run" => run(&args[1..]),
        _ => {
            eprintln!("unknown mode {mode}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fleet: {message}");
            ExitCode::FAILURE
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Every value of a repeatable flag, in order.
fn flags<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .collect()
}

/// The mode's observability handle: a span-tracing JSONL journal at
/// `--journal PATH`, or in-memory metrics only.
fn build_obs(args: &[String]) -> Result<Obs, String> {
    match flag(args, "--journal") {
        Some(path) => {
            let journal = JsonlRecorder::create(std::path::Path::new(path))
                .map_err(|e| format!("creating journal {path}: {e}"))?;
            let obs = Obs::new(Box::new(journal), Box::<MonotonicClock>::default());
            obs.enable_span_events();
            Ok(obs)
        }
        None => Ok(Obs::metrics_only()),
    }
}

fn work(args: &[String]) -> Result<(), String> {
    let data = flag(args, "--data").ok_or_else(|| format!("--data is required\n{USAGE}"))?;
    let mut config = WorkerConfig {
        data_dir: PathBuf::from(data),
        ..WorkerConfig::default()
    };
    if let Some(addr) = flag(args, "--addr") {
        config.ctrl_addr = addr.to_string();
    }
    if let Some(addr) = flag(args, "--peer-addr") {
        config.peer_addr = addr.to_string();
    }
    if let Some(peers) = flag(args, "--peers") {
        config.peers = peers
            .split(',')
            .filter(|p| !p.is_empty())
            .map(String::from)
            .collect();
    }
    if let Some(raw) = flag(args, "--workers") {
        let workers = raw
            .parse::<usize>()
            .map_err(|_| format!("--workers needs an integer, got {raw}"))?;
        config.parallelism = Parallelism::new(workers.max(1));
    }
    config.journal = flag(args, "--journal").map(PathBuf::from);

    let obs = build_obs(args)?;
    let worker = Worker::start(&config, &obs).map_err(|e| e.to_string())?;
    println!(
        "fleet worker: ctrl {} peer {}",
        worker.ctrl_addr(),
        worker.peer_addr()
    );
    let _ = std::io::stdout().flush();
    if let Some(path) = flag(args, "--addr-file") {
        std::fs::write(path, worker.ctrl_addr()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = flag(args, "--peer-addr-file") {
        std::fs::write(path, worker.peer_addr()).map_err(|e| format!("writing {path}: {e}"))?;
    }

    // Serve until killed; shard durability does not depend on a
    // graceful exit.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let spec_path = flag(args, "--spec").ok_or_else(|| format!("--spec is required\n{USAGE}"))?;
    let data = flag(args, "--data").ok_or_else(|| format!("--data is required\n{USAGE}"))?;
    let workers: Vec<String> = flags(args, "--worker")
        .into_iter()
        .map(String::from)
        .collect();
    if workers.is_empty() {
        return Err(format!("at least one --worker is required\n{USAGE}"));
    }
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let spec = CampaignSpec::from_json(&text).map_err(|e| format!("{spec_path}: {e}"))?;

    // Same admission path as optd, so the effective config — and
    // therefore the campaign bytes — match the single-node run exactly.
    let admitted = optassign_optd::admission::admit(&spec).map_err(|e| e.to_string())?;
    let Some((effective, _review)) = admitted else {
        return Err("infeasible SLO: admission rejected the spec".into());
    };
    if let Some(original) = effective.degraded_from {
        println!(
            "admission degraded acceptable_loss {original} -> {}",
            effective.config.acceptable_loss
        );
    }

    let obs = build_obs(args)?;
    let plane = match flag(args, "--serve") {
        Some(addr) => {
            let plane_config = PlaneConfig {
                addr: addr.to_string(),
                journal: flag(args, "--journal").map(PathBuf::from),
                worker_peers: flags(args, "--worker-peer")
                    .into_iter()
                    .map(String::from)
                    .collect(),
            };
            let plane = start_plane(&plane_config, &obs)
                .map_err(|e| format!("binding plane {addr}: {e}"))?;
            println!("fleet plane: {}", plane.addr());
            let _ = std::io::stdout().flush();
            if let Some(path) = flag(args, "--serve-addr-file") {
                std::fs::write(path, plane.addr().to_string())
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
            Some(plane)
        }
        None => None,
    };
    let config = FleetConfig::new(data, workers);
    let outcome = run_fleet_campaign(&effective, &config, &obs).map_err(|e| e.to_string())?;

    let result = &outcome.result;
    println!(
        "campaign finished: stop={} converged={} samples={} evaluations={}",
        result.stop.name(),
        result.converged,
        result.samples_used,
        result.evaluations
    );
    println!("best assignment: {:?}", result.best_assignment.contexts());
    println!("best performance: {}", result.best_performance);
    println!("merged store: {}", outcome.merged_dir.display());
    let _ = std::io::stdout().flush();
    obs.flush();
    if let Some(plane) = plane {
        // Keep the pane of glass up over the finished campaign — the
        // merged timeline and fleet metrics stay queryable until the
        // operator (or the smoke script) kills the process.
        println!("fleet plane serving until killed: {}", plane.addr());
        let _ = std::io::stdout().flush();
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    Ok(())
}
