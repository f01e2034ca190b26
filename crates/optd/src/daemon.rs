//! The campaign daemon: a stride scheduler over resumable
//! [`IterativeSession`]s, one per admitted campaign, each journaling to
//! its own [`CampaignStore`] WAL.
//!
//! # Scheduling
//!
//! Budget-weighted round-robin via stride scheduling: each running
//! campaign carries a `pass` value and a `stride = K / eval_budget`, so
//! a tenant that granted twice the evaluation budget is stepped twice as
//! often. The scheduler thread repeatedly picks the runnable campaign
//! with the smallest `(pass, id)`, checks its session *out* of the lock,
//! runs exactly one [`IterativeSession::step`] (one bounded batch +
//! re-estimate), and checks it back in. HTTP reads never wait on a step:
//! they serve the last published [`CampaignView`].
//!
//! # Durability and resume
//!
//! Each campaign lives in `data_dir/c{id:06}/` holding `spec.json` (the
//! *effective* spec, post-admission) and the store WAL. On start the
//! daemon rescans the data directory and rebuilds a session per
//! campaign; replay through the WAL reproduces every measured batch
//! without touching the model, so a killed-and-restarted daemon
//! converges to byte-identical campaign state — the same guarantee the
//! offline `run_iterative_persistent` driver provides, because they run
//! the very same session code.

use crate::admission::{self, AdmissionReview};
use crate::spec::{CampaignSpec, TenantModel};
use optassign::iterative::{IterativeSession, SessionSnapshot, StepOutcome};
use optassign::CoreError;
use optassign_obs::{labeled, lane_span_id, Obs, TraceContext};
use optassign_store::CampaignStore;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Stride numerator: large enough that `K / eval_budget` stays distinct
/// for any sane budget.
const STRIDE_UNIT: u64 = 1 << 40;

/// How many trailing per-round gap observations feed the SLO trajectory
/// estimate.
const TRAJECTORY_WINDOW: usize = 5;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root directory; one subdirectory per campaign.
    pub data_dir: PathBuf,
    /// Wall-clock pause after every step. Zero in production; tests use
    /// it to widen the window for kill-mid-campaign scenarios. Pacing
    /// never changes results — determinism comes from the session.
    pub step_delay: Duration,
    /// Worker-count override applied to every session's measurement
    /// batches. Deployment tuning, not campaign identity: results and
    /// WAL bytes are bit-identical at any worker count, which is why
    /// parallelism is absent from the wire spec.
    pub workers: Option<usize>,
}

impl DaemonConfig {
    /// Config rooted at `data_dir` with no pacing.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            data_dir: data_dir.into(),
            step_delay: Duration::ZERO,
            workers: None,
        }
    }
}

/// Lifecycle of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignState {
    /// Still being stepped.
    Running,
    /// Session finished (converged or budget-stopped).
    Finished,
    /// Session errored; the state is final and the error is recorded.
    Failed,
}

impl CampaignState {
    /// Stable lowercase name for the wire format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CampaignState::Running => "running",
            CampaignState::Finished => "finished",
            CampaignState::Failed => "failed",
        }
    }
}

/// SLO feasibility signal derived from the UPB-gap trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloState {
    /// No usable estimate yet.
    Pending,
    /// Gap already at target, or projected to reach it within budget.
    OnTrack,
    /// Projection misses the target but the trend is still improving.
    AtRisk,
    /// Budget exhausted or the gap has stopped shrinking far from
    /// target.
    Unreachable,
    /// Finished converged.
    Met,
    /// Finished without certifying the target.
    Missed,
}

impl SloState {
    /// Stable lowercase name for the wire format.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SloState::Pending => "pending",
            SloState::OnTrack => "on_track",
            SloState::AtRisk => "at_risk",
            SloState::Unreachable => "unreachable",
            SloState::Met => "met",
            SloState::Missed => "missed",
        }
    }
}

/// Published snapshot of one campaign, served to HTTP readers without
/// touching the session.
#[derive(Debug, Clone)]
pub struct CampaignView {
    /// Campaign name (`c000001`), also its directory name.
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Last session snapshot.
    pub snapshot: SessionSnapshot,
    /// Steps executed so far (including replayed ones after a restart).
    pub steps: u64,
    /// Error text when `state == Failed`.
    pub error: Option<String>,
    /// SLO trajectory signal.
    pub slo: SloState,
    /// The effective spec the session runs.
    pub spec: CampaignSpec,
    /// Campaign directory (spec + WAL).
    pub dir: PathBuf,
}

/// One tenant campaign under management.
struct Campaign {
    view: CampaignView,
    /// Checked out (None) while the scheduler steps it.
    session: Option<IterativeSession>,
    model: Arc<TenantModel>,
    store: Arc<CampaignStore>,
    pass: u64,
    stride: u64,
    /// Trailing UPB gaps, one per estimating round.
    gap_history: Vec<f64>,
    /// Remote trace context of the submitting request, when the client
    /// propagated one: admission and every session step journal their
    /// spans under its server span id.
    trace: Option<TraceContext>,
}

struct State {
    campaigns: BTreeMap<u64, Campaign>,
    next_id: u64,
    virtual_time: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    obs: Obs,
    config: DaemonConfig,
}

/// Outcome of a submission.
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// Campaign admitted (possibly with a degraded gap target).
    Admitted {
        /// Initial view of the new campaign.
        view: Box<CampaignView>,
        /// The admission math.
        review: AdmissionReview,
    },
    /// SLO infeasible within budget and the tenant asked for rejection.
    Rejected {
        /// The admission math explaining the refusal.
        review: AdmissionReview,
    },
}

/// Why a submission could not be processed at all (distinct from a
/// structured SLO rejection).
#[derive(Debug)]
pub enum SubmitError {
    /// Spec or config semantically invalid.
    Invalid(String),
    /// The campaign directory or WAL could not be created.
    Storage(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(reason) => write!(f, "invalid spec: {reason}"),
            SubmitError::Storage(reason) => write!(f, "campaign storage error: {reason}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<CoreError> for SubmitError {
    fn from(e: CoreError) -> Self {
        SubmitError::Invalid(e.to_string())
    }
}

/// Cloneable handle exposing daemon operations; the HTTP layer holds
/// one.
#[derive(Clone)]
pub struct DaemonHandle {
    shared: Arc<Shared>,
}

/// The daemon: owns the scheduler thread; dropping it shuts the
/// scheduler down (sessions are re-buildable from disk at any point).
pub struct Daemon {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<()>>,
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Daemon {
    /// Starts the daemon: creates `data_dir`, resumes every campaign
    /// found there, and spawns the scheduler thread.
    ///
    /// # Errors
    ///
    /// I/O errors creating or scanning the data directory. A campaign
    /// directory that fails to resume (unreadable or unparsable
    /// `spec.json`, broken WAL) is counted on
    /// `optd_resume_failures_total` and skipped rather than taking the
    /// whole daemon down.
    pub fn start(config: DaemonConfig, obs: Obs) -> io::Result<Daemon> {
        std::fs::create_dir_all(&config.data_dir)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                campaigns: BTreeMap::new(),
                next_id: 1,
                virtual_time: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            obs,
            config,
        });
        resume_campaigns(&shared)?;
        let worker = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("optd-sched".into())
                .spawn(move || scheduler_loop(&shared))?
        };
        Ok(Daemon {
            shared,
            worker: Some(worker),
        })
    }

    /// A cloneable handle for the HTTP layer.
    #[must_use]
    pub fn handle(&self) -> DaemonHandle {
        DaemonHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the scheduler thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = lock(&self.shared);
            st.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl DaemonHandle {
    /// Admits (or rejects) a campaign spec. On admission the campaign
    /// directory is created, the effective spec persisted, and the
    /// session queued for stepping.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for semantically bad specs,
    /// [`SubmitError::Storage`] when the campaign directory cannot be set up.
    /// An infeasible SLO under a `reject` policy is *not* an error — it
    /// returns [`SubmitOutcome::Rejected`] with the admission math.
    pub fn submit(&self, spec: &CampaignSpec) -> Result<SubmitOutcome, SubmitError> {
        self.submit_traced(spec, None)
    }

    /// [`DaemonHandle::submit`] carrying the submitting request's remote
    /// trace context: the admission decision journals an
    /// `optd_admission_ns` span under the request's server span, and
    /// every subsequent session step of the admitted campaign journals
    /// an `optd_step_ns` span there too — the daemon-side half of the
    /// cross-process timeline.
    ///
    /// # Errors
    ///
    /// As [`DaemonHandle::submit`].
    pub fn submit_traced(
        &self,
        spec: &CampaignSpec,
        trace: Option<TraceContext>,
    ) -> Result<SubmitOutcome, SubmitError> {
        let obs = &self.shared.obs;
        let admit_start_ns = obs.now_ns();
        let record_admission = |outcome: &str| {
            if let Some(ctx) = &trace {
                let parent = ctx.server_span_id();
                obs.record_lane_span(
                    "optd_admission_ns",
                    lane_span_id(parent, 1),
                    parent,
                    0,
                    admit_start_ns,
                    obs.now_ns(),
                );
                obs.emit(|| {
                    optassign_obs::Event::new("optd_admission")
                        .with("trace", ctx.trace_id)
                        .with("parent", parent)
                        .with("tenant", spec.tenant.clone())
                        .with("outcome", outcome)
                });
            }
        };
        let Some((mut effective, review)) = admission::admit(spec)? else {
            let review = admission::review(spec)?;
            self.shared
                .obs
                .counter_add("optd_campaigns_rejected_total", 1);
            self.shared.obs.counter_add(
                &labeled("optd_tenant_rejected_total", &[("tenant", &spec.tenant)]),
                1,
            );
            record_admission("rejected");
            return Ok(SubmitOutcome::Rejected { review });
        };
        if let Some(workers) = self.shared.config.workers {
            effective.config.parallelism.workers = workers.max(1);
        }
        // Validate the full config before touching disk.
        let session = IterativeSession::new(&effective.config, effective.seed)?;
        let mut st = lock(&self.shared);
        let id = st.next_id;
        let name = campaign_name(id);
        let dir = self.shared.config.data_dir.join(&name);
        std::fs::create_dir_all(&dir).map_err(|e| SubmitError::Storage(e.to_string()))?;
        std::fs::write(dir.join("spec.json"), effective.to_json())
            .map_err(|e| SubmitError::Storage(e.to_string()))?;
        let store = CampaignStore::open(&dir).map_err(|e| SubmitError::Storage(e.to_string()))?;
        let model = Arc::new(effective.model.build());
        let view = CampaignView {
            name: name.clone(),
            tenant: effective.tenant.clone(),
            state: CampaignState::Running,
            snapshot: session.snapshot(),
            steps: 0,
            error: None,
            slo: SloState::Pending,
            spec: effective,
            dir,
        };
        let campaign = Campaign {
            view: view.clone(),
            session: Some(session),
            model,
            store: Arc::new(store),
            pass: st.virtual_time,
            stride: stride_for(view.spec.config.eval_budget),
            gap_history: Vec::new(),
            trace,
        };
        st.next_id = id + 1;
        st.campaigns.insert(id, campaign);
        drop(st);
        self.shared
            .obs
            .counter_add("optd_campaigns_admitted_total", 1);
        let degraded = review.decision != crate::admission::AdmissionDecision::Admit;
        if degraded {
            self.shared
                .obs
                .counter_add("optd_campaigns_degraded_total", 1);
        }
        // Admission outcome per tenant campaign: 0 admitted as asked,
        // 1 admitted with a degraded target. Written once per campaign
        // (unique label set), so the single-writer gauge rule holds.
        self.shared.obs.gauge_set(
            &labeled(
                "optd_tenant_admission",
                &[("campaign", &view.name), ("tenant", &view.tenant)],
            ),
            if degraded { 1.0 } else { 0.0 },
        );
        record_admission(if degraded { "degraded" } else { "admitted" });
        self.shared.wake.notify_all();
        Ok(SubmitOutcome::Admitted {
            view: Box::new(view),
            review,
        })
    }

    /// The latest published view of a campaign, by name.
    #[must_use]
    pub fn view(&self, name: &str) -> Option<CampaignView> {
        let st = lock(&self.shared);
        st.campaigns
            .values()
            .find(|c| c.view.name == name)
            .map(|c| c.view.clone())
    }

    /// Views of every campaign, in id order.
    #[must_use]
    pub fn list(&self) -> Vec<CampaignView> {
        let st = lock(&self.shared);
        st.campaigns.values().map(|c| c.view.clone()).collect()
    }

    /// Removes a campaign from management and deletes its directory.
    /// Returns false for unknown names. A checked-out session finishes
    /// its in-flight step against the retained store handle and is then
    /// discarded.
    pub fn remove(&self, name: &str) -> bool {
        let mut st = lock(&self.shared);
        let id = st
            .campaigns
            .iter()
            .find(|(_, c)| c.view.name == name)
            .map(|(id, _)| *id);
        let Some(id) = id else {
            return false;
        };
        let campaign = st.campaigns.remove(&id);
        drop(st);
        if let Some(campaign) = campaign {
            let _ = std::fs::remove_dir_all(&campaign.view.dir);
        }
        self.shared.wake.notify_all();
        true
    }

    /// True once every campaign has left the running state — used by
    /// tests and the bench harness to drain.
    #[must_use]
    pub fn drained(&self) -> bool {
        let st = lock(&self.shared);
        st.campaigns
            .values()
            .all(|c| c.view.state != CampaignState::Running)
    }
}

fn campaign_name(id: u64) -> String {
    format!("c{id:06}")
}

fn stride_for(eval_budget: usize) -> u64 {
    STRIDE_UNIT / (eval_budget.max(1) as u64)
}

/// Rebuilds sessions for every campaign directory found under the data
/// dir. Directories are visited in name order, so ids (and therefore
/// scheduling ties) are assigned deterministically.
fn resume_campaigns(shared: &Arc<Shared>) -> io::Result<()> {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&shared.config.data_dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() && name.starts_with('c') {
            names.push(name);
        }
    }
    names.sort();
    let mut st = lock(shared);
    for name in names {
        let dir = shared.config.data_dir.join(&name);
        let resumed = resume_one(&name, &dir, shared.config.workers);
        match resumed {
            Ok((spec, session, store)) => {
                let Some(id) = name[1..].parse::<u64>().ok() else {
                    shared.obs.counter_add("optd_resume_failures_total", 1);
                    continue;
                };
                let model = Arc::new(spec.model.build());
                let view = CampaignView {
                    name: name.clone(),
                    tenant: spec.tenant.clone(),
                    state: CampaignState::Running,
                    snapshot: session.snapshot(),
                    steps: 0,
                    error: None,
                    slo: SloState::Pending,
                    spec,
                    dir,
                };
                let stride = stride_for(view.spec.config.eval_budget);
                let pass = st.virtual_time;
                st.campaigns.insert(
                    id,
                    Campaign {
                        view,
                        session: Some(session),
                        model,
                        store: Arc::new(store),
                        pass,
                        stride,
                        gap_history: Vec::new(),
                        trace: None,
                    },
                );
                st.next_id = st.next_id.max(id + 1);
                shared.obs.counter_add("optd_campaigns_resumed_total", 1);
            }
            Err(reason) => {
                shared.obs.counter_add("optd_resume_failures_total", 1);
                shared.obs.emit(|| {
                    optassign_obs::Event::new("optd_resume_failed")
                        .with("campaign", name.as_str())
                        .with("reason", reason.as_str())
                });
            }
        }
    }
    Ok(())
}

fn resume_one(
    name: &str,
    dir: &std::path::Path,
    workers: Option<usize>,
) -> Result<(CampaignSpec, IterativeSession, CampaignStore), String> {
    let text = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| format!("reading spec.json for {name}: {e}"))?;
    let mut spec = CampaignSpec::from_json(&text).map_err(|e| format!("parsing {name}: {e}"))?;
    if let Some(workers) = workers {
        spec.config.parallelism.workers = workers.max(1);
    }
    let session = IterativeSession::new(&spec.config, spec.seed)
        .map_err(|e| format!("rebuilding session for {name}: {e}"))?;
    let store = CampaignStore::open(dir).map_err(|e| format!("opening store for {name}: {e}"))?;
    Ok((spec, session, store))
}

/// The scheduler thread body: pick min-(pass, id), check the session
/// out, step it outside the lock, publish the refreshed view.
fn scheduler_loop(shared: &Arc<Shared>) {
    let mut st = lock(shared);
    loop {
        if st.shutdown {
            return;
        }
        let pick = st
            .campaigns
            .iter()
            .filter(|(_, c)| c.view.state == CampaignState::Running && c.session.is_some())
            .min_by_key(|(id, c)| (c.pass, **id))
            .map(|(id, _)| *id);
        let Some(id) = pick else {
            st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        // Check out: the session leaves the map so HTTP reads (and the
        // scheduler's next pick) never block on the step.
        let Some(campaign) = st.campaigns.get_mut(&id) else {
            continue;
        };
        let Some(mut session) = campaign.session.take() else {
            continue;
        };
        let model = Arc::clone(&campaign.model);
        let store = Arc::clone(&campaign.store);
        let pass = campaign.pass;
        campaign.pass = pass.saturating_add(campaign.stride);
        let trace = campaign.trace;
        let step_index = campaign.view.steps;
        st.virtual_time = pass;
        drop(st);

        let step_start_ns = shared.obs.now_ns();
        let outcome = session.step(model.as_ref(), &shared.obs, Some(store.as_ref()));
        if let Some(ctx) = &trace {
            let parent = ctx.server_span_id();
            shared.obs.record_lane_span(
                "optd_step_ns",
                lane_span_id(parent, step_index.saturating_add(2)),
                parent,
                0,
                step_start_ns,
                shared.obs.now_ns(),
            );
        }
        shared.obs.counter_add("optd_steps_total", 1);
        if !shared.config.step_delay.is_zero() {
            thread::sleep(shared.config.step_delay);
        }

        st = lock(shared);
        if let Some(campaign) = st.campaigns.get_mut(&id) {
            campaign.view.steps += 1;
            campaign.view.snapshot = session.snapshot();
            if let Some(gap) = campaign.view.snapshot.gap {
                if campaign.view.snapshot.rounds > campaign.gap_history.len() as u64 {
                    campaign.gap_history.push(gap);
                }
            }
            match outcome {
                Ok(StepOutcome::Running) => {}
                Ok(StepOutcome::Finished(_)) => {
                    campaign.view.state = CampaignState::Finished;
                    store.sync();
                    shared.obs.counter_add("optd_campaigns_finished_total", 1);
                }
                Err(e) => {
                    campaign.view.state = CampaignState::Failed;
                    campaign.view.error = Some(e.to_string());
                    store.sync();
                    shared.obs.counter_add("optd_campaigns_failed_total", 1);
                }
            }
            campaign.view.slo = slo_state(campaign);
            publish_tenant_gauges(&shared.obs, &campaign.view);
            // Keep the journal file current step by step, so a scrape
            // (or an abrupt kill) sees every span recorded so far.
            shared.obs.flush();
            campaign.session = Some(session);
        }
        // else: removed while stepping; session and store drop here.
    }
}

/// Publishes the per-tenant service-plane gauges for one campaign view:
/// current UPB gap, SLO trajectory state (as [`slo_code`]), and budget
/// spent. Only the scheduler thread writes them, so last-write-wins is
/// single-writer per series.
fn publish_tenant_gauges(obs: &Obs, view: &CampaignView) {
    let labels = [
        ("campaign", view.name.as_str()),
        ("tenant", view.tenant.as_str()),
    ];
    if let Some(gap) = view.snapshot.gap {
        obs.gauge_set(&labeled("optd_tenant_gap", &labels), gap);
    }
    obs.gauge_set(
        &labeled("optd_tenant_slo_state", &labels),
        f64::from(slo_code(view.slo)),
    );
    obs.gauge_set(
        &labeled("optd_tenant_budget_spent", &labels),
        view.snapshot.evaluations as f64,
    );
    obs.gauge_set(&labeled("optd_tenant_steps", &labels), view.steps as f64);
}

/// Numeric encoding of [`SloState`] for the `optd_tenant_slo_state`
/// gauge — ordered so "bigger is worse" until the terminal states.
#[must_use]
pub fn slo_code(state: SloState) -> u8 {
    match state {
        SloState::Pending => 0,
        SloState::OnTrack => 1,
        SloState::AtRisk => 2,
        SloState::Unreachable => 3,
        SloState::Met => 4,
        SloState::Missed => 5,
    }
}

/// Derives the SLO trajectory signal from the published snapshot and
/// the trailing gap history.
fn slo_state(campaign: &Campaign) -> SloState {
    let snap = &campaign.view.snapshot;
    let cfg = &campaign.view.spec.config;
    match campaign.view.state {
        CampaignState::Finished => {
            if snap.converged {
                SloState::Met
            } else {
                SloState::Missed
            }
        }
        CampaignState::Failed => SloState::Missed,
        CampaignState::Running => {
            let Some(gap) = snap.gap else {
                return SloState::Pending;
            };
            if gap <= cfg.acceptable_loss {
                return SloState::OnTrack;
            }
            let remaining = cfg.eval_budget.saturating_sub(snap.evaluations);
            if remaining == 0 {
                return SloState::Unreachable;
            }
            let history = &campaign.gap_history;
            if history.len() < 2 {
                // One estimate is not a trend.
                return SloState::OnTrack;
            }
            let window = history.len().min(TRAJECTORY_WINDOW);
            let first = history[history.len() - window];
            let last = history[history.len() - 1];
            let shrink_per_round = (first - last) / (window as f64 - 1.0);
            if shrink_per_round <= 0.0 {
                return if history.len() >= TRAJECTORY_WINDOW {
                    SloState::Unreachable
                } else {
                    SloState::AtRisk
                };
            }
            let rounds_left = (remaining / cfg.n_delta.max(1)) as f64;
            let projected = last - shrink_per_round * rounds_left;
            if projected <= cfg.acceptable_loss {
                SloState::OnTrack
            } else {
                SloState::AtRisk
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{InfeasiblePolicy, ModelSpec};
    use optassign::iterative::{run_iterative_persistent, IterativeConfig};
    use optassign_store::WAL_FILE;
    use std::time::Instant;

    fn synthetic_spec(seed: u64, budget: usize) -> CampaignSpec {
        CampaignSpec {
            tenant: format!("tenant-{seed}"),
            seed,
            model: ModelSpec::Synthetic {
                tasks: 8,
                base_pps: 2.0e6,
            },
            config: IterativeConfig {
                n_init: 300,
                n_delta: 100,
                acceptable_loss: 0.05,
                eval_budget: budget,
                ..IterativeConfig::default()
            },
            on_infeasible: InfeasiblePolicy::Reject,
            degraded_from: None,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "optd-daemon-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wait_drained(handle: &DaemonHandle) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !handle.drained() {
            assert!(Instant::now() < deadline, "daemon did not drain in time");
            thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn daemon_matches_offline_campaign_bytes() {
        let online = temp_dir("online");
        let offline = temp_dir("offline");
        let spec = synthetic_spec(41, 20_000);

        let daemon = Daemon::start(DaemonConfig::new(&online), Obs::disabled()).unwrap();
        let handle = daemon.handle();
        let SubmitOutcome::Admitted { view, .. } = handle.submit(&spec).unwrap() else {
            panic!("feasible spec rejected");
        };
        assert_eq!(view.name, "c000001");
        wait_drained(&handle);
        let final_view = handle.view("c000001").unwrap();
        assert_eq!(final_view.state, CampaignState::Finished);
        assert_eq!(final_view.slo, SloState::Met);
        assert!(final_view.snapshot.converged);
        drop(daemon);

        let store = CampaignStore::open(&offline).unwrap();
        let offline_result =
            run_iterative_persistent(&spec.model.build(), &spec.config, spec.seed, &store).unwrap();
        store.sync();
        assert!(
            (offline_result.best_performance - final_view.snapshot.best_performance.unwrap()).abs()
                < 1e-12
        );
        let online_wal = std::fs::read(online.join("c000001").join(WAL_FILE)).unwrap();
        let offline_wal = std::fs::read(offline.join(WAL_FILE)).unwrap();
        assert!(!online_wal.is_empty());
        assert_eq!(online_wal, offline_wal, "daemon WAL differs from offline");

        let _ = std::fs::remove_dir_all(&online);
        let _ = std::fs::remove_dir_all(&offline);
    }

    #[test]
    fn two_tenants_with_different_budgets_interleave_and_finish() {
        let dir = temp_dir("two");
        let daemon = Daemon::start(DaemonConfig::new(&dir), Obs::disabled()).unwrap();
        let handle = daemon.handle();
        let heavy = synthetic_spec(7, 40_000);
        let light = synthetic_spec(8, 4_000);
        assert!(matches!(
            handle.submit(&heavy).unwrap(),
            SubmitOutcome::Admitted { .. }
        ));
        assert!(matches!(
            handle.submit(&light).unwrap(),
            SubmitOutcome::Admitted { .. }
        ));
        wait_drained(&handle);
        let views = handle.list();
        assert_eq!(views.len(), 2);
        for v in &views {
            assert_eq!(
                v.state,
                CampaignState::Finished,
                "{}: {:?}",
                v.name,
                v.error
            );
            assert!(v.snapshot.best_performance.is_some());
        }
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_resumes_to_identical_bytes() {
        let dir = temp_dir("restart");
        let baseline = temp_dir("restart-base");
        // A gap target tight enough that the campaign needs many rounds
        // (bounded by max_samples), so the shutdown lands mid-campaign;
        // still feasible under admission (required ~6k < budget 20k).
        let mut spec = synthetic_spec(113, 20_000);
        spec.config.acceptable_loss = 0.0005;
        spec.config.max_samples = 2_000;

        // Uninterrupted reference run.
        {
            let daemon = Daemon::start(DaemonConfig::new(&baseline), Obs::disabled()).unwrap();
            let handle = daemon.handle();
            handle.submit(&spec).unwrap();
            wait_drained(&handle);
        }

        // Interrupted run: shut the daemon down after the first steps
        // (sessions mid-campaign), then restart over the same data dir.
        {
            let config = DaemonConfig {
                data_dir: dir.clone(),
                step_delay: Duration::from_millis(25),
                workers: None,
            };
            let daemon = Daemon::start(config, Obs::disabled()).unwrap();
            let handle = daemon.handle();
            handle.submit(&spec).unwrap();
            let deadline = Instant::now() + Duration::from_secs(30);
            while handle.view("c000001").map_or(0, |v| v.steps) < 2 {
                assert!(
                    Instant::now() < deadline,
                    "campaign never stepped: {:?}",
                    handle.view("c000001")
                );
                thread::sleep(Duration::from_millis(5));
            }
            // Drop without draining: the campaign is still running.
        }
        {
            let daemon = Daemon::start(DaemonConfig::new(&dir), Obs::disabled()).unwrap();
            let handle = daemon.handle();
            let resumed = handle.view("c000001").expect("campaign not resumed");
            assert_eq!(resumed.state, CampaignState::Running);
            wait_drained(&handle);
            let v = handle.view("c000001").unwrap();
            assert_eq!(v.state, CampaignState::Finished);
        }

        let a = std::fs::read(dir.join("c000001").join(WAL_FILE)).unwrap();
        let b = std::fs::read(baseline.join("c000001").join(WAL_FILE)).unwrap();
        assert_eq!(a, b, "restarted WAL differs from uninterrupted WAL");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline);
    }

    #[test]
    fn remove_deletes_the_campaign_directory() {
        let dir = temp_dir("remove");
        let daemon = Daemon::start(DaemonConfig::new(&dir), Obs::disabled()).unwrap();
        let handle = daemon.handle();
        handle.submit(&synthetic_spec(3, 20_000)).unwrap();
        wait_drained(&handle);
        assert!(dir.join("c000001").exists());
        assert!(handle.remove("c000001"));
        assert!(!dir.join("c000001").exists());
        assert!(!handle.remove("c000001"));
        assert!(handle.view("c000001").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infeasible_slo_is_rejected_not_stored() {
        let dir = temp_dir("reject");
        let daemon = Daemon::start(DaemonConfig::new(&dir), Obs::disabled()).unwrap();
        let handle = daemon.handle();
        let mut spec = synthetic_spec(5, 120);
        spec.config.acceptable_loss = 0.01;
        spec.config.n_init = 100;
        let SubmitOutcome::Rejected { review } = handle.submit(&spec).unwrap() else {
            panic!("infeasible spec admitted");
        };
        assert_eq!(review.required_evaluations, 299);
        assert!(handle.list().is_empty());
        assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
