//! The fleet worker: a node that measures leased slot ranges and serves
//! its journaled slots to peers.
//!
//! One worker runs two single-threaded HTTP endpoints over one campaign
//! store (its *shard*):
//!
//! * the **control** endpoint takes campaign installs and synchronous
//!   slot-range leases (`POST /v1/campaigns`, `POST /v1/lease`) — a
//!   lease occupies the accept thread for the duration of the
//!   measurement, which is exactly the backpressure a coordinator
//!   wants from a node it leases to; and
//! * the **federation** endpoint stays responsive while a lease runs,
//!   serving the worker's journaled slots
//!   (`GET /v1/slot/{campaign}/{sequence}/{slot}`, answered from
//!   [`CampaignStore::lookup_slot`]) and its JSONL journal
//!   (`GET /v1/journal`) — everything a peer or the observability plane
//!   reads, nothing that feeds back into measurement.
//!
//! Both answer `GET /healthz`, `/metrics` and `/metrics.json` from the
//! worker's `Obs` handle, as every endpoint on the shared HTTP core does;
//! the plane scrapes the federation endpoint's `/metrics.json`.
//!
//! Leased slots journal through [`measure_leased_slots`] into the shard,
//! which is the worker's replay log and the slot source it serves to
//! peers. The campaign journal itself is the coordinator's, written from
//! the lease answers.

use optassign::iterative::{measure_leased_slots, PeerSlots};
use optassign::persist::{iterative_campaign_id, CampaignStore};
use optassign::{Parallelism, PerformanceModel};
use optassign_httpd::{HttpConfig, HttpServer, Request, Response};
use optassign_obs::{json_string, lane_span_id, Json, Obs, TraceContext};
use optassign_optd::client::{http_call_traced, CallOptions};
use optassign_optd::spec::{CampaignSpec, ModelSpec};
use optassign_store::io::RealIo;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::wire;

/// Rejected-request counter of the control endpoint.
pub const CTRL_REJECTED_COUNTER: &str = "fleet_ctrl_rejected_total";

/// Rejected-request counter of the federation endpoint.
pub const PEER_REJECTED_COUNTER: &str = "fleet_peer_rejected_total";

/// Largest lease/install body the control endpoint accepts. A lease of a
/// whole `n_init` batch at 64 tasks is well under 1 MiB; 4 MiB leaves
/// headroom without inviting abuse.
pub const MAX_CONTROL_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Shape of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The worker's shard store directory.
    pub data_dir: PathBuf,
    /// Bind address of the control endpoint (`127.0.0.1:0` for an
    /// ephemeral port).
    pub ctrl_addr: String,
    /// Bind address of the federation endpoint.
    pub peer_addr: String,
    /// Federation peers (other workers' federation addresses) asked for
    /// their record of a leased slot before it is evaluated. Peer hits
    /// journal at zero attempts, so cold runs that must stay
    /// byte-identical to a single node run with no peers; federation is
    /// for warm reruns of a campaign some peer has journaled.
    pub peers: Vec<String>,
    /// Thread/batch shape for leased-slot evaluation (a throughput knob;
    /// results are bit-identical at any setting).
    pub parallelism: Parallelism,
    /// Path of this worker's JSONL journal, when it writes one. Served
    /// verbatim at `GET /v1/journal` on the federation endpoint so the
    /// coordinator can stitch a fleet-wide timeline; `None` answers 404.
    pub journal: Option<PathBuf>,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            data_dir: PathBuf::from("fleet-worker-data"),
            ctrl_addr: "127.0.0.1:0".into(),
            peer_addr: "127.0.0.1:0".into(),
            peers: Vec::new(),
            parallelism: Parallelism::default(),
            journal: None,
        }
    }
}

/// Asks other workers' federation endpoints for a slot's record, first
/// answer wins. Lookup misses on any transport error — a dead peer
/// degrades hit rate, never a campaign.
pub struct HttpPeers {
    peers: Vec<String>,
    options: CallOptions,
    /// Observability handle the peer calls journal through, and the
    /// trace context of the lease currently occupying the control
    /// thread (leases are served one at a time, so one slot suffices).
    /// Federation fetches made while a traced lease runs inherit its
    /// context — the federation hop of the causal timeline.
    obs: Obs,
    lease_trace: Arc<Mutex<Option<TraceContext>>>,
}

impl HttpPeers {
    /// A federation over `peers` with short per-call timeouts.
    #[must_use]
    pub fn new(peers: Vec<String>) -> HttpPeers {
        HttpPeers::traced(peers, Obs::disabled(), Arc::new(Mutex::new(None)))
    }

    /// A federation whose lookups carry the trace context in
    /// `lease_trace` (when set) and journal `rpc_client` events on
    /// `obs`.
    #[must_use]
    pub fn traced(
        peers: Vec<String>,
        obs: Obs,
        lease_trace: Arc<Mutex<Option<TraceContext>>>,
    ) -> HttpPeers {
        HttpPeers {
            peers,
            options: CallOptions {
                io_timeout: Duration::from_secs(2),
                connect_timeout: Duration::from_secs(2),
                connect_budget: None,
            },
            obs,
            lease_trace,
        }
    }
}

impl PeerSlots for HttpPeers {
    fn lookup(&self, campaign: u64, sequence: u64, slot: u64) -> Option<(Vec<usize>, f64)> {
        let ctx = *self
            .lease_trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.peers.iter().find_map(|addr| {
            let Ok((200, body)) = http_call_traced(
                addr,
                "GET",
                &format!("/v1/slot/{campaign}/{sequence}/{slot}"),
                None,
                &self.options,
                &self.obs,
                ctx.as_ref(),
            ) else {
                return None;
            };
            wire::decode_slot(&body)
        })
    }
}

struct WorkerState {
    store: Arc<CampaignStore>,
    /// Installed campaigns by fingerprint. Each lease builds its model
    /// from the effective spec, so every worker measures the exact
    /// workload the coordinator fingerprinted, and a simulator-backed
    /// model's pooled simulators are freed when the lease ends.
    campaigns: Mutex<HashMap<u64, ModelSpec>>,
    peers: HttpPeers,
    parallelism: Parallelism,
    obs: Obs,
    /// Shared with [`HttpPeers`]: the trace context of the lease the
    /// control thread is currently measuring.
    lease_trace: Arc<Mutex<Option<TraceContext>>>,
    /// This worker's own journal file, served at `GET /v1/journal`.
    journal: Option<PathBuf>,
}

/// A running fleet worker: two HTTP endpoints over one shard store.
/// Shuts down on drop.
pub struct Worker {
    state: Arc<WorkerState>,
    ctrl: HttpServer,
    peer: HttpServer,
}

impl Worker {
    /// Opens (or creates) the shard store and binds both endpoints.
    ///
    /// # Errors
    ///
    /// Bind/spawn failures and a shard directory that is not a valid
    /// store, as [`std::io::Error`].
    pub fn start(config: &WorkerConfig, obs: &Obs) -> std::io::Result<Worker> {
        let store = CampaignStore::open_with(&config.data_dir, &RealIo, obs)
            .map_err(|e| std::io::Error::other(format!("opening shard store: {e}")))?;
        let lease_trace = Arc::new(Mutex::new(None));
        let state = Arc::new(WorkerState {
            store: Arc::new(store),
            campaigns: Mutex::new(HashMap::new()),
            peers: HttpPeers::traced(config.peers.clone(), obs.clone(), Arc::clone(&lease_trace)),
            parallelism: config.parallelism,
            obs: obs.clone(),
            lease_trace,
            journal: config.journal.clone(),
        });
        let peer_state = Arc::clone(&state);
        let peer = HttpServer::start(
            &config.peer_addr,
            obs.clone(),
            HttpConfig::read_only("fleet-peer", PEER_REJECTED_COUNTER),
            Arc::new(move |req: &Request| peer_route(&peer_state, req)),
        )?;
        let ctrl_state = Arc::clone(&state);
        let ctrl_http = HttpConfig {
            thread_name: "fleet-ctrl",
            rejected_counter: CTRL_REJECTED_COUNTER,
            allowed_methods: &["GET", "POST"],
            max_body_bytes: MAX_CONTROL_BODY_BYTES,
        };
        let ctrl = HttpServer::start(
            &config.ctrl_addr,
            obs.clone(),
            ctrl_http,
            Arc::new(move |req: &Request| ctrl_route(&ctrl_state, req)),
        )?;
        Ok(Worker { state, ctrl, peer })
    }

    /// The control endpoint's bound address.
    #[must_use]
    pub fn ctrl_addr(&self) -> String {
        self.ctrl.addr().to_string()
    }

    /// The federation endpoint's bound address.
    #[must_use]
    pub fn peer_addr(&self) -> String {
        self.peer.addr().to_string()
    }

    /// The worker's shard store (for tests and in-process harnesses).
    #[must_use]
    pub fn store(&self) -> Arc<CampaignStore> {
        Arc::clone(&self.state.store)
    }

    /// Stops both endpoints. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.ctrl.shutdown();
        self.peer.shutdown();
    }
}

/// Parses `key=value` out of a query string, exact-match on the key.
fn query_param(query: Option<&str>, key: &str) -> Option<String> {
    query?
        .split('&')
        .find_map(|pair| pair.strip_prefix(key)?.strip_prefix('=').map(String::from))
}

fn ctrl_route(state: &WorkerState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/campaigns") => install_campaign(state, req),
        ("POST", "/v1/lease") => serve_lease(state, req),
        _ => Response::not_found(),
    }
}

fn install_campaign(state: &WorkerState, req: &Request) -> Response {
    let Some(claimed) =
        query_param(req.query.as_deref(), "campaign").and_then(|raw| raw.parse::<u64>().ok())
    else {
        return Response::json(400, "{\"error\":\"?campaign=<fingerprint> is required\"}");
    };
    let spec = match CampaignSpec::from_json(&req.body_str()) {
        Ok(spec) => spec,
        Err(e) => return Response::json(422, format!("{{\"error\":{}}}", json_string(&e.0))),
    };
    let model = spec.model.build();
    let fingerprint =
        iterative_campaign_id(spec.seed, &spec.config, model.tasks(), model.topology());
    if fingerprint != claimed {
        // The coordinator and this worker disagree on what the spec
        // *is* — refusing beats journaling under the wrong identity.
        return Response::json(
            409,
            format!(
                "{{\"error\":\"spec fingerprints to {fingerprint}, not {claimed}\",\
                 \"campaign\":{fingerprint}}}"
            ),
        );
    }
    // The fingerprint leaves the model out, so two campaigns on
    // different models can share one; measuring one's leases on the
    // other's model would journal wrong values under the right slots.
    let mut campaigns = state
        .campaigns
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match campaigns.get(&fingerprint) {
        Some(installed) if *installed != spec.model => Response::json(
            409,
            format!(
                "{{\"error\":\"campaign {fingerprint} is installed with another model\",\
                 \"campaign\":{fingerprint}}}"
            ),
        ),
        _ => {
            campaigns.insert(fingerprint, spec.model);
            Response::json(201, format!("{{\"campaign\":{fingerprint}}}"))
        }
    }
}

fn serve_lease(state: &WorkerState, req: &Request) -> Response {
    let body = req.body_str();
    let Some(campaign) = Json::parse(&body)
        .as_ref()
        .and_then(|d| d.get("campaign"))
        .and_then(Json::as_u64)
    else {
        return Response::json(400, "{\"error\":\"lease carries no campaign\"}");
    };
    let spec = {
        let campaigns = state
            .campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        campaigns.get(&campaign).cloned()
    };
    let Some(model) = spec.map(|spec| spec.build()) else {
        return Response::json(
            404,
            format!("{{\"error\":\"campaign {campaign} is not installed on this worker\"}}"),
        );
    };
    let lease = match wire::decode_lease(&body, model.topology()) {
        Ok(lease) => lease,
        Err(e) => return Response::json(400, format!("{{\"error\":{}}}", json_string(&e))),
    };
    // A traced lease parents everything the measurement journals —
    // including federation fetches made through [`HttpPeers`] while it
    // runs — under the request's server span.
    let remote_parent = req.trace.as_ref().map_or(0, TraceContext::server_span_id);
    if let Some(ctx) = &req.trace {
        *state
            .lease_trace
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(ctx.child(remote_parent));
    }
    let measured = measure_leased_slots(
        &model,
        &lease,
        &state.store,
        &state.peers,
        state.parallelism,
        &state.obs,
        remote_parent,
    );
    *state
        .lease_trace
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = None;
    let outcomes = match measured {
        Ok(outcomes) => outcomes,
        Err(e) => {
            return Response::json(
                500,
                format!("{{\"error\":{}}}", json_string(&e.to_string())),
            )
        }
    };
    // Sync before answering: the shard is this worker's replay log, so a
    // worker restarted on it after a kill replays every slot it reported
    // instead of measuring it again.
    let sync_start_ns = state.obs.now_ns();
    state.store.sync();
    if remote_parent != 0 {
        state.obs.record_lane_span(
            "fleet_wal_sync_ns",
            lane_span_id(remote_parent, u64::MAX - lease.sequence),
            remote_parent,
            0,
            sync_start_ns,
            state.obs.now_ns(),
        );
    }
    // Flush after every lease so a worker killed mid-campaign leaves a
    // journal with at most one torn tail line.
    state.obs.flush();
    Response::json(200, wire::encode_outcomes(&outcomes))
}

fn peer_route(state: &WorkerState, req: &Request) -> Response {
    match req.path.as_str() {
        "/v1/journal" => match &state.journal {
            Some(path) => {
                state.obs.flush();
                match std::fs::read(path) {
                    Ok(bytes) => Response::octets(bytes),
                    Err(e) => Response::text(500, format!("journal read failed: {e}\n")),
                }
            }
            None => Response::not_found(),
        },
        path => match path.strip_prefix("/v1/slot/").and_then(parse_slot_path) {
            Some((campaign, sequence, slot)) => {
                match state.store.lookup_slot(campaign, sequence, slot) {
                    Some(record) => Response::json(200, wire::encode_slot(&record)),
                    None => Response::not_found(),
                }
            }
            None => Response::not_found(),
        },
    }
}

/// Parses `{campaign}/{sequence}/{slot}`.
fn parse_slot_path(rest: &str) -> Option<(u64, u64, u64)> {
    let mut parts = rest.split('/').map(str::parse::<u64>);
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(Ok(campaign)), Some(Ok(sequence)), Some(Ok(slot)), None) => {
            Some((campaign, sequence, slot))
        }
        _ => None,
    }
}
