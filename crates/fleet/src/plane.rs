//! The coordinator's observability plane: one pane of glass over a
//! running fleet.
//!
//! A tiny read-only HTTP endpoint the coordinator (optionally) runs
//! beside a campaign. Like every endpoint on the shared HTTP core it
//! answers `GET /healthz`, `/metrics` and `/metrics.json` for the
//! coordinator's own `Obs`; its handler adds the two fleet-wide views:
//!
//! * `GET /v1/fleet/metrics` — the coordinator's series plus every
//!   reachable worker's `/metrics.json` snapshot, each series tagged with
//!   an `instance` label and label-merged into one exposition — the
//!   fleet scraped as a single target;
//! * `GET /v1/trace/merged` — the coordinator's journal plus every
//!   reachable worker's `GET /v1/journal`, stitched into one Chrome
//!   trace with per-process clock alignment and cross-process flow
//!   arrows (see [`optassign_obs::stitch`]).
//!
//! Everything here is an observer: scrapes read snapshots and journal
//! files, nothing flows back into the campaign. A worker that died (or
//! was never given a journal) simply contributes no series/spans — the
//! plane answers with whatever part of the fleet is still reachable.

use optassign_httpd::{Handler, HttpConfig, HttpServer, Request, Response};
use optassign_obs::stitch::stitch_journals;
use optassign_obs::{Json, MetricsRegistry, Obs};
use optassign_optd::client::{http_call_with, CallOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Rejected-request counter of the plane endpoint.
pub const PLANE_REJECTED_COUNTER: &str = "fleet_plane_rejected_total";

/// Instance label value for the coordinator's own series and journal.
pub const COORDINATOR_INSTANCE: &str = "coordinator";

/// How long one worker scrape (metrics or journal) may take. Short: a
/// dead worker should cost the pane a moment, not a timeout spiral.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Shape of one observability plane.
#[derive(Debug, Clone)]
pub struct PlaneConfig {
    /// Address to bind (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// The coordinator's own JSONL journal, merged into
    /// `/v1/trace/merged` when present.
    pub journal: Option<PathBuf>,
    /// Federation (peer) addresses of the fleet's workers — where
    /// `/metrics.json` and `/v1/journal` are scraped from.
    pub worker_peers: Vec<String>,
}

/// Starts the plane endpoint; it serves until the handle is dropped.
///
/// # Errors
///
/// Propagates bind/spawn failures.
pub fn start_plane(config: &PlaneConfig, obs: &Obs) -> std::io::Result<HttpServer> {
    let http = HttpConfig::read_only("fleet-plane", PLANE_REJECTED_COUNTER);
    let state = Arc::new(PlaneState {
        obs: obs.clone(),
        journal: config.journal.clone(),
        worker_peers: config.worker_peers.clone(),
    });
    let handler: Arc<Handler> = Arc::new(move |req: &Request| plane_route(&state, req));
    HttpServer::start(&config.addr, obs.clone(), http, handler)
}

struct PlaneState {
    obs: Obs,
    journal: Option<PathBuf>,
    worker_peers: Vec<String>,
}

fn scrape_options() -> CallOptions {
    CallOptions {
        io_timeout: SCRAPE_TIMEOUT,
        connect_timeout: SCRAPE_TIMEOUT,
        connect_budget: None,
    }
}

fn plane_route(state: &PlaneState, req: &Request) -> Response {
    match req.path.as_str() {
        "/v1/fleet/metrics" => fleet_metrics(state),
        "/v1/trace/merged" => merged_trace(state),
        _ => Response::not_found(),
    }
}

/// Scrapes every reachable worker's `/metrics.json`, tags each snapshot
/// (and the coordinator's own) with an `instance` label, and merges
/// them into one Prometheus exposition.
fn fleet_metrics(state: &PlaneState) -> Response {
    let options = scrape_options();
    let mut merged = state
        .obs
        .metrics()
        .relabeled("instance", COORDINATOR_INSTANCE);
    for peer in &state.worker_peers {
        let Ok((200, body)) = http_call_with(peer, "GET", "/metrics.json", None, &options) else {
            continue;
        };
        let Some(doc) = Json::parse(&body) else {
            continue;
        };
        merged.merge_from(&MetricsRegistry::from_json(&doc).relabeled("instance", peer));
    }
    Response::ok("text/plain; charset=utf-8", merged.to_prometheus())
}

/// Pulls every reachable worker's journal over the federation endpoint,
/// adds the coordinator's own, and stitches them into one Chrome trace.
fn merged_trace(state: &PlaneState) -> Response {
    let options = scrape_options();
    // Flush first so the coordinator's own journal file holds everything
    // recorded up to this request.
    state.obs.flush();
    let mut journals: Vec<(String, String)> = Vec::new();
    if let Some(path) = &state.journal {
        if let Ok(text) = std::fs::read_to_string(path) {
            journals.push((COORDINATOR_INSTANCE.to_string(), text));
        }
    }
    for peer in &state.worker_peers {
        let Ok((200, body)) = http_call_with(peer, "GET", "/v1/journal", None, &options) else {
            continue;
        };
        journals.push((format!("worker {peer}"), body));
    }
    Response::json(200, stitch_journals(&journals).json)
}
