//! End-to-end campaign benchmark with an outside-in layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path campaign-bench/Cargo.toml -- \
//!     --workload <optd-tenants|fleet-warm-rerun> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Both workloads run the same fig13-shaped iterative campaign (see
//! [`common::spec_json`]) on the simulator-backed IPFwd-L1 model, each
//! campaign seeded from `--seed`, back to back for `--seconds`:
//!
//! * `optd-tenants` — four tenants, each a closed-loop HTTP client of an
//!   optd daemon that submits a campaign, polls it to completion, reads
//!   its best assignment and deletes it. Exercises admission, the stride
//!   scheduler, the simulator, EVT estimation, the campaign WAL and the
//!   HTTP layer; never federation.
//! * `fleet-warm-rerun` — reruns of already-measured campaigns through a
//!   coordinator and a fresh loopback worker whose every slot resolves
//!   from a federation peer. Exercises lease RPCs, cache federation,
//!   shard WALs and EVT estimation; the simulator never runs inside the
//!   timed campaigns.
//!
//! The last line of stdout is one JSON object `{correct, attempted,
//! failed, metrics}`. `--trace 0` reports the end-to-end metrics, timed
//! with observability off; `--trace 1` reports the per-layer ledger, read
//! from the program's own metrics registry (turned on for that run) and
//! from timers this benchmark keeps around its calls into the program.

mod common;
mod fleet_rerun;
mod optd_tenants;

use common::{median, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["optd-tenants", "fleet-warm-rerun"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        run_for: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders the result line. Metric values keep every digit Rust's
/// shortest round-trip formatting gives them.
fn result_json(outcome: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// End-to-end metrics: what a tenant sees, measured with tracing off —
/// campaign wall-clock per sample delivered (see
/// [`Outcome::ns_per_sample`]), samples delivered per second of the run,
/// and set-up time.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("ms_per_sample", outcome.ns_per_sample() / 1e6, "ms"),
        (
            "samples_per_s",
            outcome.samples as f64 / (outcome.window_ns as f64 / 1e9),
            "1/s",
        ),
        ("setup_s", median(&outcome.setup_ns) / 1e9, "s"),
    ]
}

/// The per-layer ledger, per finished campaign of the traced run: its
/// mean wall-clock, the busy time of each layer where the work happens,
/// work counts, and the simulator's cost per evaluation (the paper's
/// Table 1 arithmetic: samples x cost per measurement).
fn per_layer(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let l = &outcome.layers;
    let campaigns = outcome.campaign_ns.len().max(1) as f64;
    let campaign_ns: f64 = outcome.campaign_ns.iter().map(|&n| n as f64).sum();
    let per_ms = |ns: u64| ns as f64 / campaigns / 1e6;
    vec![
        ("traced_campaign_ms", campaign_ns / campaigns / 1e6, "ms"),
        ("measure_ms", per_ms(l.measure_ns), "ms"),
        ("round_ms", per_ms(l.round_ns), "ms"),
        ("estimate_ms", per_ms(l.estimate_ns), "ms"),
        ("sim_eval_us", median(&l.sim_eval_ns) / 1e3, "us"),
        (
            "http_pct",
            100.0 * l.http_ns as f64 / campaign_ns.max(1.0),
            "%",
        ),
        ("evals", l.evals as f64 / campaigns, "count"),
        ("peer_hits", l.peer_hits as f64 / campaigns, "count"),
        ("http_requests", l.http_requests as f64 / campaigns, "count"),
        ("wal_bytes", l.wal_bytes as f64 / campaigns, "bytes"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the working directory, removed on exit.
    let scratch =
        PathBuf::from(".bench_scratch").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("campaign-bench: creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "optd-tenants" => optd_tenants::run(&args, &scratch),
        _ => fleet_rerun::run(&args, &scratch),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Only succeeds once no other run is using the parent.
    let _ = std::fs::remove_dir(".bench_scratch");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign-bench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if outcome.campaign_ns.is_empty() {
        eprintln!("campaign-bench: no campaign finished");
        return ExitCode::FAILURE;
    }
    let metrics = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    eprintln!(
        "campaign-bench: {} seed {}: {} campaigns, {} failed, {} samples",
        args.workload, args.seed, outcome.attempted, outcome.failed, outcome.samples
    );
    println!("{}", result_json(&outcome, &metrics));
    ExitCode::SUCCESS
}
