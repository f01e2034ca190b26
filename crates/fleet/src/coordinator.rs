//! The fleet coordinator: drives one iterative campaign across a fleet
//! of workers and journals it exactly as a single node would.
//!
//! The coordinator owns the session loop (so the campaign stream, batch
//! salts, and stopping rule are exactly the single-node ones) and the
//! campaign's one journal, a [`CampaignStore`] at `data_dir/merged`. The
//! session resolves and journals each batch through that store exactly
//! as a single node's persistent run does; the coordinator's
//! [`BatchBackend`] only measures what the session could not resolve:
//!
//! 1. the session replays every slot the journal already holds and
//!    resolves the rest against the journal's evaluation cache, which
//!    folds only at batch markers, so the hits are exactly the
//!    single-node ones;
//! 2. the backend partitions the remaining slots into contiguous leases,
//!    one per live worker, and dispatches them concurrently;
//! 3. it re-leases the slots of any worker that fails to answer (connect
//!    error, timeout, malformed response) among the survivors — a dead
//!    worker only *moves* slots, it cannot change their values, because
//!    every slot is a pure function of `(batch_salt, slot)`;
//! 4. the session journals every freshly resolved slot, cache hits and
//!    lease answers alike, in slot order, then the batch marker — so a
//!    rerun on the same data dir resumes the journal.
//!
//! Workers journal their leases into shards of their own — their
//! evaluation caches and replay logs. The coordinator never reads them:
//! each lease answer carries the full record of every slot it measured.

use optassign::iterative::{
    BatchBackend, BatchRequest, IterativeResult, IterativeSession, LeaseOutcome, LeaseRequest,
    SlotOutcome, StepOutcome,
};
use optassign::model::MeasureError;
use optassign::persist::{iterative_campaign_id, CampaignStore};
use optassign::{CoreError, PerformanceModel, Topology};
use optassign_obs::{fleet_counters, Event, Obs, TraceContext};
use optassign_optd::client::{http_call_traced, http_call_with, CallOptions};
use optassign_optd::spec::{CampaignSpec, TenantModel};
use optassign_store::io::RealIo;
use optassign_store::StoreError;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use crate::wire;

/// How long the coordinator waits for a worker to answer one lease.
/// This is the lease *deadline*: a worker that has not answered by then
/// is declared dead and its slots are re-leased.
pub const LEASE_DEADLINE: Duration = Duration::from_secs(120);

/// Connect budget for the initial worker probe (workers may still be
/// binding when the coordinator starts).
const PROBE_BUDGET: Duration = Duration::from_secs(10);

/// Everything that can end a fleet campaign early.
#[derive(Debug)]
pub enum FleetError {
    /// The campaign itself failed (validation, measurement, budget).
    Core(CoreError),
    /// A store operation failed.
    Store(StoreError),
    /// Worker probe/install/protocol failure.
    Fleet(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Core(e) => write!(f, "campaign error: {e}"),
            FleetError::Store(e) => write!(f, "store error: {e}"),
            FleetError::Fleet(m) => write!(f, "fleet error: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> FleetError {
        FleetError::Core(e)
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> FleetError {
        FleetError::Store(e)
    }
}

/// Coordinator-side shape of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Coordinator data directory. The run journals the campaign into
    /// `merged/` inside it — the store a single-node run of the same
    /// spec writes, byte for byte — and writes nothing else there. A
    /// journal already in `merged/` is resumed: its slots replay and
    /// only the rest are leased.
    pub data_dir: PathBuf,
    /// Control addresses of the workers to lease to.
    pub workers: Vec<String>,
    /// Per-lease deadline.
    pub lease_deadline: Duration,
}

impl FleetConfig {
    /// A fleet over `workers` rooted at `data_dir`, default deadline.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>, workers: Vec<String>) -> FleetConfig {
        FleetConfig {
            data_dir: data_dir.into(),
            workers,
            lease_deadline: LEASE_DEADLINE,
        }
    }
}

/// What a finished fleet campaign hands back.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The campaign result — bit-identical to a single-node run.
    pub result: IterativeResult,
    /// The campaign fingerprint everything journaled under.
    pub campaign: u64,
    /// The coordinator's campaign journal (`data_dir/merged`), complete
    /// and byte-identical to the single-node store: a valid resume point.
    pub merged_dir: PathBuf,
}

struct WorkerHandle {
    ctrl: String,
    alive: bool,
}

/// The coordinator's [`BatchBackend`]: leases the slots the session
/// could not resolve from the journal out to the live workers.
struct FleetBackend<'a> {
    model: &'a TenantModel,
    workers: Vec<WorkerHandle>,
    lease_options: CallOptions,
}

impl BatchBackend for FleetBackend<'_> {
    fn tasks(&self) -> usize {
        self.model.tasks()
    }

    fn topology(&self) -> Topology {
        self.model.topology()
    }

    /// Dispatches the request's slots across the live workers, re-leasing
    /// the slots of any worker that fails to answer among the survivors.
    fn measure(
        &mut self,
        request: &BatchRequest<'_>,
        obs: &Obs,
    ) -> Result<Vec<SlotOutcome>, CoreError> {
        let topo = self.model.topology();
        let mut out: Vec<Option<SlotOutcome>> = vec![None; request.slots.len()];
        let mut pending: Vec<usize> = (0..request.slots.len()).collect();
        let mut reassigned = false;
        while !pending.is_empty() {
            let live: Vec<usize> = (0..self.workers.len())
                .filter(|&i| self.workers[i].alive)
                .collect();
            if live.is_empty() {
                return Err(CoreError::Measurement(MeasureError::Failed(
                    "no live workers left to lease to".into(),
                )));
            }
            // Contiguous partition: worker k gets the k-th chunk of the
            // pending run. Which worker measures a slot never affects
            // its value.
            let chunks: Vec<(usize, &[usize])> = live
                .iter()
                .copied()
                .zip(pending.chunks(pending.len().div_ceil(live.len())))
                .collect();
            obs.counter_add(fleet_counters::LEASES_ISSUED, chunks.len() as u64);
            if reassigned {
                obs.counter_add(fleet_counters::LEASES_REASSIGNED, chunks.len() as u64);
            }
            let options = &self.lease_options;
            let workers = &self.workers;
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .into_iter()
                    .map(|(widx, chunk)| {
                        let addr = workers[widx].ctrl.as_str();
                        let handle = scope.spawn(move || {
                            dispatch_lease(addr, request, chunk, topo, options, obs)
                        });
                        (widx, chunk, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(widx, chunk, handle)| {
                        let answer = handle
                            .join()
                            .unwrap_or_else(|_| Err("dispatch thread panicked".into()));
                        (widx, chunk, answer)
                    })
                    .collect::<Vec<_>>()
            });
            let mut unanswered = Vec::new();
            for (widx, chunk, answer) in results {
                match answer {
                    Ok(outcomes) => {
                        obs.emit(|| {
                            Event::new("fleet_lease")
                                .with("worker", self.workers[widx].ctrl.as_str())
                                .with("sequence", request.sequence)
                                .with("slots", outcomes.len() as u64)
                        });
                        for (&i, o) in chunk.iter().zip(outcomes) {
                            out[i] = Some(o.outcome);
                        }
                    }
                    Err(reason) => {
                        let worker = &mut self.workers[widx];
                        worker.alive = false;
                        obs.counter_add(fleet_counters::WORKERS_LOST, 1);
                        obs.counter_add(fleet_counters::LEASES_EXPIRED, 1);
                        obs.emit(|| {
                            Event::new("fleet_worker_lost")
                                .with("worker", worker.ctrl.as_str())
                                .with("reason", reason.as_str())
                        });
                        unanswered.extend_from_slice(chunk);
                        reassigned = true;
                    }
                }
            }
            pending = unanswered;
        }
        Ok(out.into_iter().flatten().collect())
    }
}

/// Sends one lease — the request's slots at positions `chunk` — to one
/// worker and validates the answer covers exactly the leased slots.
///
/// The call carries the campaign's trace context (trace id = campaign
/// fingerprint, so every process observing the campaign lands in the
/// same trace) when `obs` records spans; the header is absent otherwise
/// and the wire bytes match the untraced coordinator exactly.
fn dispatch_lease(
    addr: &str,
    request: &BatchRequest<'_>,
    chunk: &[usize],
    topo: Topology,
    options: &CallOptions,
    obs: &Obs,
) -> Result<Vec<LeaseOutcome>, String> {
    let lease = LeaseRequest {
        campaign: request.campaign,
        sequence: request.sequence,
        batch_salt: request.batch_salt,
        max_retries: request.max_retries,
        draw_cap: request.draw_cap,
        slots: chunk.iter().map(|&i| request.slots[i]).collect(),
        primaries: chunk
            .iter()
            .map(|&i| request.primaries[i].clone())
            .collect(),
    };
    let body = wire::encode_lease(&lease);
    let ctx = TraceContext::root(request.campaign);
    let (status, answer) = http_call_traced(
        addr,
        "POST",
        "/v1/lease",
        Some(&body),
        options,
        obs,
        Some(&ctx),
    )
    .map_err(|e| format!("lease call failed: {e}"))?;
    if status != 200 {
        return Err(format!("lease answered {status}: {answer}"));
    }
    let outcomes = wire::decode_outcomes(&answer, topo)?;
    if outcomes.len() != lease.slots.len() {
        return Err(format!(
            "lease answered {} outcomes for {} slots",
            outcomes.len(),
            lease.slots.len()
        ));
    }
    for (o, slot) in outcomes.iter().zip(&lease.slots) {
        if o.slot != *slot {
            return Err(format!("lease answered slot {}, leased {slot}", o.slot));
        }
    }
    Ok(outcomes)
}

/// Probes and installs the campaign on every worker. All workers must
/// be reachable at start; losing them later is survivable, starting
/// without them is a configuration error.
fn install_on_workers(
    spec: &CampaignSpec,
    campaign: u64,
    addrs: &[String],
) -> Result<Vec<WorkerHandle>, FleetError> {
    let probe = CallOptions::with_connect_budget(PROBE_BUDGET);
    let mut workers = Vec::with_capacity(addrs.len());
    for addr in addrs {
        let (status, _) = http_call_with(addr, "GET", "/healthz", None, &probe)
            .map_err(|e| FleetError::Fleet(format!("worker {addr} unreachable: {e}")))?;
        if status != 200 {
            return Err(FleetError::Fleet(format!(
                "worker {addr} answered {status} to the probe"
            )));
        }
        let path = format!("/v1/campaigns?campaign={campaign}");
        let (status, answer) =
            http_call_with(addr, "POST", &path, Some(&spec.to_json()), &probe)
                .map_err(|e| FleetError::Fleet(format!("installing on {addr}: {e}")))?;
        if status != 201 {
            return Err(FleetError::Fleet(format!(
                "worker {addr} refused the campaign ({status}): {answer}"
            )));
        }
        workers.push(WorkerHandle {
            ctrl: addr.clone(),
            alive: true,
        });
    }
    Ok(workers)
}

/// Runs one campaign across a fleet of workers; see the module docs.
///
/// `spec` must be the *effective* (post-admission) spec — the same one
/// `optd offline` would run — and every worker must be reachable at
/// start. The returned journal is byte-identical to the store a
/// single-node `run_iterative_persistent` of the same spec writes. A
/// rerun on the same data dir resumes the journal (see the module docs).
///
/// # Errors
///
/// [`FleetError::Fleet`] when a worker cannot be probed or installed,
/// or when the journal lost a write to an I/O error;
/// [`FleetError::Core`] when every worker dies mid-campaign, and for
/// other campaign failures; [`FleetError::Store`] when the journal
/// cannot be opened.
pub fn run_fleet_campaign(
    spec: &CampaignSpec,
    config: &FleetConfig,
    obs: &Obs,
) -> Result<FleetOutcome, FleetError> {
    if config.workers.is_empty() {
        return Err(FleetError::Fleet("no workers configured".into()));
    }
    let model = spec.model.build();
    let campaign = iterative_campaign_id(spec.seed, &spec.config, model.tasks(), model.topology());
    let merged_dir = config.data_dir.join("merged");
    let workers = install_on_workers(spec, campaign, &config.workers)?;
    let store = CampaignStore::open_with(&merged_dir, Arc::new(RealIo), obs)?;
    let mut backend = FleetBackend {
        model: &model,
        workers,
        lease_options: CallOptions {
            io_timeout: config.lease_deadline,
            connect_timeout: Duration::from_secs(2),
            connect_budget: None,
        },
    };

    let mut session = IterativeSession::new(&spec.config, spec.seed)?;
    let result = loop {
        if let StepOutcome::Finished(result) =
            session.step_with_backend(&mut backend, obs, Some(&store))?
        {
            break *result;
        }
    };
    store.sync();
    // The store counts a failed write instead of raising it; a journal
    // with a hole is no resume point, so the run fails instead.
    let lost = store.io_errors();
    if lost > 0 {
        return Err(FleetError::Fleet(format!(
            "{lost} writes to the campaign journal in {} failed",
            merged_dir.display()
        )));
    }
    Ok(FleetOutcome {
        result,
        campaign,
        merged_dir,
    })
}
