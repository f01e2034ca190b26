//! The iterative task-assignment algorithm (paper §5.3, Figure 13),
//! hardened for faulty measurement infrastructure.
//!
//! The customer specifies an acceptable performance loss `X%`. The
//! algorithm measures `N_init` random assignments, estimates the optimal
//! system performance with the POT method, and — while the best observed
//! assignment is more than `X%` below the estimate — keeps measuring
//! `N_delta` more random assignments, re-estimating on the growing sample.
//! Its output is the best observed assignment together with the estimated
//! gap to the optimum.
//!
//! On top of the paper's loop, this implementation survives the failure
//! modes of real measurement campaigns:
//!
//! * failed measurements are retried (bounded per assignment) and, when a
//!   retry budget is exhausted, the assignment is redrawn;
//! * a total evaluation budget caps the cost of running against flaky
//!   infrastructure;
//! * estimation runs through the resilient fallback ladder
//!   ([`optassign_evt::resilient`]); degraded estimates (PWM, bootstrap)
//!   are *recorded* but never certify convergence, because they cannot
//!   extrapolate a trustworthy optimum;
//! * when the gap cannot be certified for many consecutive rounds, the
//!   stopping rule degrades to relative-improvement: stop once the best
//!   observation has stopped improving;
//! * every such departure from the clean path is recorded as a
//!   [`DegradationEvent`] in the result.

use crate::measure::{measure_slots, Journal, Ladder, Measure};
use crate::model::{MeasureError, PerformanceModel};
use crate::persist;
use crate::sampling::random_assignment;
use crate::study::SampleStudy;
use crate::{Assignment, CoreError};
use optassign_evt::pot::PotConfig;
use optassign_evt::resilient::{EstimateReport, FallbackPolicy, ResilientConfig};
use optassign_exec::{split_seed, Parallelism};
use optassign_obs::{fleet_counters, Event, Obs};
use optassign_sim::Topology;
use optassign_stats::rng::{Rng, StdRng};
use optassign_store::CampaignStore;

pub use crate::measure::{LeaseResolution, NoPeers, PeerCache, SlotOutcome};

/// Salt deriving each round's batch stream from the campaign seed.
const BATCH_SALT: u64 = 0x4954_4552_4241_5443;
/// Salt separating a slot's replacement-draw stream from its fault
/// stream within a batch.
const BATCH_REDRAW_SALT: u64 = 0x4954_5245_4452_4157;

/// Configuration of the iterative algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeConfig {
    /// Initial sample size `N_init` (the paper uses 1000).
    pub n_init: usize,
    /// Assignments added per iteration `N_delta` (the paper uses 100).
    pub n_delta: usize,
    /// Acceptable performance loss w.r.t. the estimated optimum, as a
    /// fraction (the paper studies 0.025, 0.05 and 0.10).
    pub acceptable_loss: f64,
    /// Confidence level of the POT estimation (the paper uses 0.95).
    pub confidence: f64,
    /// Hard cap on the total number of measured assignments, so a
    /// mis-specified target cannot loop forever.
    pub max_samples: usize,
    /// Retries per assignment when a measurement fails; after that the
    /// assignment is abandoned and redrawn. Must be below
    /// [`IterativeConfig::eval_budget`].
    pub max_eval_retries: usize,
    /// Total measurement-attempt budget (successes *and* failures). On
    /// flaky infrastructure this, not `max_samples`, bounds the cost.
    pub eval_budget: usize,
    /// Rounds without a relative best-performance improvement of at least
    /// [`IterativeConfig::min_rel_improvement`] before the loop stops as
    /// stalled.
    pub stall_rounds: usize,
    /// Smallest relative improvement of the best observation that counts
    /// as progress for stall detection.
    pub min_rel_improvement: f64,
    /// Consecutive rounds of unusable (failed or degraded) UPB estimates
    /// before the stopping rule degrades to relative-improvement.
    pub estimate_failure_limit: usize,
    /// How far down the estimation fallback ladder each round may go.
    pub fallback: FallbackPolicy,
    /// Worker count for the per-round measurement batches. The batch
    /// results are bit-identical for every worker count (see
    /// [`optassign_exec`]), so this is purely a throughput knob; the
    /// default honors `OPTASSIGN_WORKERS` and otherwise stays serial.
    pub parallelism: Parallelism,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        IterativeConfig {
            n_init: 1000,
            n_delta: 100,
            acceptable_loss: 0.025,
            confidence: 0.95,
            max_samples: 50_000,
            max_eval_retries: 2,
            eval_budget: 200_000,
            stall_rounds: 25,
            min_rel_improvement: 1e-4,
            estimate_failure_limit: 5,
            fallback: FallbackPolicy::Full,
            parallelism: Parallelism::default(),
        }
    }
}

/// Why the loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A profile-grade estimate certified the gap target.
    TargetMet,
    /// The `max_samples` cap was reached with the target unmet.
    MaxSamples,
    /// The total evaluation budget was exhausted by failed measurements.
    EvalBudget,
    /// The best observation stopped improving while estimates were
    /// healthy — sampling further is unlikely to pay off.
    Stalled,
    /// The degraded stopping rule fired: estimation kept failing, and the
    /// best observation stopped improving.
    RelativeImprovement,
}

impl StopReason {
    /// Stable snake_case name for journals and reports.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::TargetMet => "target_met",
            StopReason::MaxSamples => "max_samples",
            StopReason::EvalBudget => "eval_budget",
            StopReason::Stalled => "stalled",
            StopReason::RelativeImprovement => "relative_improvement",
        }
    }
}

/// A departure from the clean measure-estimate-extend path.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationEvent {
    /// Failed measurements were retried during a round.
    MeasurementRetried {
        /// Sample size after the round.
        samples: usize,
        /// Retry attempts consumed.
        retries: usize,
    },
    /// Assignments were abandoned (retry budget exhausted) and redrawn.
    AssignmentRedrawn {
        /// Sample size after the round.
        samples: usize,
        /// Draws abandoned.
        redrawn: usize,
    },
    /// The estimator fell back below the profile-MLE rung.
    EstimateFellBack {
        /// Sample size at the estimate.
        samples: usize,
        /// Winning rung (see
        /// [`optassign_evt::resilient::EstimateMethod::name`]).
        method: &'static str,
    },
    /// The estimation ladder returned no estimate at all.
    EstimateUnusable {
        /// Sample size at the attempt.
        samples: usize,
        /// Rendered error.
        error: String,
    },
    /// The stopping rule switched to relative-improvement.
    StoppingRuleDegraded {
        /// Sample size at the switch.
        samples: usize,
    },
    /// The evaluation budget ran out mid-measurement.
    EvalBudgetExhausted {
        /// Sample size when it happened.
        samples: usize,
        /// Attempts consumed in total.
        attempts: usize,
    },
}

impl DegradationEvent {
    /// Structured-journal rendering: kind `"degradation"` with a `what`
    /// discriminant naming the variant.
    pub fn to_event(&self) -> Event {
        let e = Event::new("degradation");
        match self {
            DegradationEvent::MeasurementRetried { samples, retries } => e
                .with("what", "measurement_retried")
                .with("samples", *samples)
                .with("retries", *retries),
            DegradationEvent::AssignmentRedrawn { samples, redrawn } => e
                .with("what", "assignment_redrawn")
                .with("samples", *samples)
                .with("redrawn", *redrawn),
            DegradationEvent::EstimateFellBack { samples, method } => e
                .with("what", "estimate_fell_back")
                .with("samples", *samples)
                .with("method", *method),
            DegradationEvent::EstimateUnusable { samples, error } => e
                .with("what", "estimate_unusable")
                .with("samples", *samples)
                .with("error", error.clone()),
            DegradationEvent::StoppingRuleDegraded { samples } => e
                .with("what", "stopping_rule_degraded")
                .with("samples", *samples),
            DegradationEvent::EvalBudgetExhausted { samples, attempts } => e
                .with("what", "eval_budget_exhausted")
                .with("samples", *samples)
                .with("attempts", *attempts),
        }
    }
}

/// One iteration's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTrace {
    /// Sample size when the estimate was made.
    pub samples: usize,
    /// Best performance observed so far.
    pub best_observed: f64,
    /// Estimated optimal system performance (UPB point estimate).
    pub estimated_optimal: f64,
    /// Gap `(UPB − best)/UPB` at this iteration.
    pub gap: f64,
    /// Which estimator rung produced the estimate.
    pub method: &'static str,
}

impl IterationTrace {
    /// Structured-journal rendering: one `"iteration"` line per round,
    /// the Figure 14 gap trace.
    pub fn to_event(&self) -> Event {
        Event::new("iteration")
            .with("samples", self.samples)
            .with("best_observed", self.best_observed)
            .with("estimated_optimal", self.estimated_optimal)
            .with("gap", self.gap)
            .with("method", self.method)
    }
}

/// Result of the iterative algorithm.
#[derive(Debug, Clone)]
pub struct IterativeResult {
    /// The best assignment observed when the loop stopped.
    pub best_assignment: Assignment,
    /// Its measured performance.
    pub best_performance: f64,
    /// The final estimate, with provenance (`final_estimate.upb` is the
    /// paper's UPB).
    pub final_estimate: EstimateReport,
    /// Total assignments measured.
    pub samples_used: usize,
    /// Total measurement attempts, including failures and retries.
    pub evaluations: usize,
    /// Whether the gap target was met (`stop == StopReason::TargetMet`).
    pub converged: bool,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Per-iteration history (for the paper's Figure 14 analysis).
    pub trace: Vec<IterationTrace>,
    /// Departures from the clean path, in order of occurrence.
    pub events: Vec<DegradationEvent>,
}

/// Outcome of one measurement batch.
struct Batch {
    assignments: Vec<Assignment>,
    performances: Vec<f64>,
    attempts: usize,
    retries: usize,
    redrawn: usize,
    budget_exhausted: bool,
}

/// The slots of one batch that nothing resolved, as handed to a
/// [`BatchBackend`]: the deterministic inputs that make each slot a pure
/// function of `(batch_salt, slot)`, independent of where it executes.
#[derive(Debug)]
pub struct BatchRequest<'a> {
    /// Campaign fingerprint the batch journals under.
    pub campaign: u64,
    /// Journal sequence number of the batch (0 for the initial sample,
    /// the round index for extension batches).
    pub sequence: u64,
    /// The batch's fault/redraw stream salt.
    pub batch_salt: u64,
    /// Retries per assignment before it is abandoned and redrawn.
    pub max_retries: usize,
    /// Replacement draws per slot.
    pub draw_cap: usize,
    /// Global batch indices of the slots to measure, ascending (each
    /// keys its slot's fault stream).
    pub slots: &'a [u64],
    /// Their primary assignments, drawn from the campaign stream:
    /// `primaries[i]` belongs to `slots[i]`.
    pub primaries: &'a [Assignment],
}

/// Where a session's measurement batches execute.
///
/// [`IterativeSession::step`] wraps the model in the in-process backend
/// (evaluate on this node's threads); the distributed fleet supplies a
/// coordinator backend that farms slots out to workers over HTTP. The
/// session resolves (journal replay, evaluation cache) and journals
/// every batch itself, so a backend only measures. The contract that
/// keeps every backend bit-identical: slot `slots[i]` must return
/// exactly what the keyed retry/redraw ladder for `primaries[i]` under
/// `(batch_salt, slots[i])` returns. The backend sees batches in journal
/// order, one call per batch.
pub trait BatchBackend {
    /// Task count of the campaign's model.
    fn tasks(&self) -> usize;
    /// Topology of the campaign's model.
    fn topology(&self) -> Topology;
    /// Measures the requested slots, returning exactly one outcome per
    /// slot, in request order.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`]; an error poisons the session that issued the
    /// request.
    fn measure(
        &mut self,
        request: &BatchRequest<'_>,
        obs: &Obs,
    ) -> Result<Vec<SlotOutcome>, CoreError>;
}

/// The in-process [`BatchBackend`]: slots evaluate against a model on
/// this node's threads.
struct LocalBackend<'a, M> {
    model: &'a M,
    parallelism: Parallelism,
}

impl<M: PerformanceModel + Sync> BatchBackend for LocalBackend<'_, M> {
    fn tasks(&self) -> usize {
        self.model.tasks()
    }

    fn topology(&self) -> Topology {
        self.model.topology()
    }

    fn measure(
        &mut self,
        request: &BatchRequest<'_>,
        obs: &Obs,
    ) -> Result<Vec<SlotOutcome>, CoreError> {
        batch_ladder(request.batch_salt, request.max_retries, request.draw_cap).run(
            self.model,
            request.slots,
            request.primaries,
            self.parallelism,
            obs,
        )
    }
}

/// The retry/redraw ladder of one iterative batch: slot streams derive
/// from the batch salt, and a slot whose every draw fails is abandoned.
fn batch_ladder(batch_salt: u64, max_retries: usize, draw_cap: usize) -> Measure {
    Measure::Ladder(Ladder {
        stream_salt: batch_salt,
        redraw_salt: batch_salt ^ BATCH_REDRAW_SALT,
        max_retries,
        draw_cap,
        exhausted_is_error: false,
    })
}

/// Measures up to `want` assignments as batch `sequence` of `campaign`,
/// spending at most `budget` attempts.
///
/// The `want` primary assignments are drawn sequentially from the main
/// campaign stream (so the clean path is identical to the sequential
/// algorithm). [`measure_slots`] resolves them against `store`, hands
/// the rest to the backend — each slot keyed by `(batch_salt, slot)` —
/// and journals the batch. The budget is enforced by an order-fixed
/// reduction: slots are accepted in index order while their cumulative
/// attempts fit, and the first slot that would overflow truncates the
/// batch — for any worker count, the same slots are kept and
/// `attempts <= budget` holds exactly.
#[allow(clippy::too_many_arguments)]
fn measure_with_backend<B: BatchBackend + ?Sized, R: Rng + ?Sized>(
    backend: &mut B,
    store: Option<&CampaignStore>,
    campaign: u64,
    sequence: u64,
    want: usize,
    max_retries: usize,
    budget: usize,
    rng: &mut R,
    batch_salt: u64,
    obs: &Obs,
) -> Result<Batch, CoreError> {
    let mut b = Batch {
        assignments: Vec::with_capacity(want),
        performances: Vec::with_capacity(want),
        attempts: 0,
        retries: 0,
        redrawn: 0,
        budget_exhausted: false,
    };
    if budget == 0 {
        b.budget_exhausted = true;
        return Ok(b);
    }
    let mut primaries = Vec::with_capacity(want);
    for _ in 0..want {
        primaries.push(random_assignment(backend.tasks(), backend.topology(), rng)?);
    }
    // Per-slot share of the batch budget, floored at the resilient
    // campaign's four draws per slot.
    let per_slot_attempts = want.max(1) * (1 + max_retries);
    let draw_cap = 4usize.max(budget.div_ceil(per_slot_attempts));
    let journal = store.map(|store| Journal {
        store,
        campaign,
        sequence,
    });
    let slot_ids: Vec<u64> = (0..want as u64).collect();
    let slots = measure_slots(
        &slot_ids,
        &primaries,
        journal,
        &NoPeers,
        obs,
        |slots, primaries| {
            let request = BatchRequest {
                campaign,
                sequence,
                batch_salt,
                max_retries,
                draw_cap,
                slots,
                primaries,
            };
            backend.measure(&request, obs)
        },
    )?;
    for (slot, _) in slots {
        if b.attempts + slot.attempts > budget {
            // The budget runs out inside this slot: count the attempts
            // that fit, drop the slot's measurement (it was not paid
            // for), and truncate the batch.
            b.attempts = budget;
            b.budget_exhausted = true;
            break;
        }
        b.attempts += slot.attempts;
        b.retries += slot.retries;
        b.redrawn += slot.redrawn;
        if let Some((a, v)) = slot.measured {
            b.assignments.push(a);
            b.performances.push(v);
        }
    }
    Ok(b)
}

/// Parameters of one slot-range lease, as dispatched by the fleet
/// coordinator: a subset of one batch's slots plus the deterministic
/// inputs ([`BatchRequest`]-equivalent) that make each slot a pure
/// function of `(batch_salt, slot)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseRequest {
    /// Campaign fingerprint the records journal under.
    pub campaign: u64,
    /// Journal sequence number of the batch the slots belong to.
    pub sequence: u64,
    /// The batch's fault/redraw stream salt.
    pub batch_salt: u64,
    /// Retries per assignment before it is abandoned and redrawn.
    pub max_retries: usize,
    /// Replacement draws per slot.
    pub draw_cap: usize,
    /// Global batch indices of the leased slots (each keys its slot's
    /// fault stream).
    pub slots: Vec<u64>,
    /// The leased slots' primary assignments, drawn by the coordinator
    /// from the campaign stream: `primaries[i]` belongs to `slots[i]`.
    pub primaries: Vec<Assignment>,
}

/// Outcome of one leased slot.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseOutcome {
    /// The slot's global batch index.
    pub slot: u64,
    /// The measurement outcome, identical to what the in-process batch
    /// path would produce for this slot.
    pub outcome: SlotOutcome,
    /// How the value was obtained.
    pub resolution: LeaseResolution,
}

/// Measures a leased subset of one batch's slots on this node — the
/// fleet worker's entry into the persistent measurement path.
///
/// Each slot resolves in a fixed ladder: this worker's own journal
/// (replay, nothing re-journaled), its evaluation cache, the federated
/// peer caches, and only then the model via the same keyed retry/redraw
/// ladder the in-process batch path uses. Freshly measured slots are
/// journaled in lease order through the worker's store (identical
/// records to a single-node run of the same batch), followed by a batch
/// marker with the lease's slot count. The store is the worker's own
/// cache and replay log; the coordinator journals the campaign from the
/// returned outcomes.
///
/// The lease is timed into the `fleet_lease_measure_ns` histogram. Under
/// a remote trace parent (`remote_parent != 0`, the worker-side server
/// span of the coordinator's `/v1/lease` call) it is also journaled as a
/// `fleet_lease_measure_ns` span with that parent; `0` means untraced.
/// Either way the measurement itself never observes the observer.
///
/// Metrics: `fleet_slot_evals_total` counts slots that reached the
/// model, `fleet_peer_hits_total` peer-cache resolutions (journal
/// replays are `measure_slots`' `exec_replayed_total`).
///
/// # Errors
///
/// [`CoreError::Domain`] when the lease carries a different number of
/// slots and primaries; otherwise as [`run_iterative`] for measurement
/// failures. Store I/O failures are counted on the store handle, never
/// raised.
pub fn measure_leased_slots<M: PerformanceModel + Sync>(
    model: &M,
    lease: &LeaseRequest,
    store: &CampaignStore,
    peers: &dyn PeerCache,
    parallelism: Parallelism,
    obs: &Obs,
    remote_parent: u64,
) -> Result<Vec<LeaseOutcome>, CoreError> {
    if lease.slots.len() != lease.primaries.len() {
        return Err(CoreError::Domain(format!(
            "lease carries {} slots but {} primaries",
            lease.slots.len(),
            lease.primaries.len()
        )));
    }
    let start_ns = obs.now_ns();
    let journal = Journal {
        store,
        campaign: lease.campaign,
        sequence: lease.sequence,
    };
    let ladder = batch_ladder(lease.batch_salt, lease.max_retries, lease.draw_cap);
    let measured = measure_slots(
        &lease.slots,
        &lease.primaries,
        Some(journal),
        peers,
        obs,
        |slots, primaries| ladder.run(model, slots, primaries, parallelism, obs),
    )?;
    let count =
        |what: &[LeaseResolution]| measured.iter().filter(|(_, r)| what.contains(r)).count() as u64;
    obs.counter_add(
        fleet_counters::SLOT_EVALS,
        count(&[LeaseResolution::Evaluated, LeaseResolution::Abandoned]),
    );
    obs.counter_add(
        fleet_counters::PEER_HITS,
        count(&[LeaseResolution::PeerHit]),
    );

    let end_ns = obs.now_ns();
    obs.observe("fleet_lease_measure_ns", end_ns.saturating_sub(start_ns));
    if remote_parent != 0 {
        // Lane ids keyed by the lease sequence stay unique per campaign
        // even when one worker measures many shards of many batches.
        obs.record_lane_span(
            "fleet_lease_measure_ns",
            optassign_obs::lane_span_id(remote_parent, lease.sequence.wrapping_add(1)),
            remote_parent,
            0,
            start_ns,
            end_ns,
        );
    }
    Ok(measured
        .into_iter()
        .zip(&lease.slots)
        .map(|((outcome, resolution), &slot)| LeaseOutcome {
            slot,
            outcome,
            resolution,
        })
        .collect())
}

/// Runs the iterative algorithm against a performance model.
///
/// # Errors
///
/// * [`CoreError::Infeasible`] — the workload does not fit the machine.
/// * [`CoreError::Domain`] — nonsensical configuration.
/// * [`CoreError::Measurement`] — the evaluation budget was exhausted
///   before any usable sample existed.
/// * Estimation errors from the fallback ladder when the loop stops
///   without any estimate (only possible under a restrictive
///   [`FallbackPolicy`], or when fewer than ten finite measurements
///   exist).
///
/// # Examples
///
/// ```
/// use optassign::iterative::{run_iterative, IterativeConfig};
/// use optassign::model::SyntheticModel;
/// use optassign::Topology;
///
/// let model = SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6);
/// let cfg = IterativeConfig { n_init: 400, acceptable_loss: 0.10, ..IterativeConfig::default() };
/// let result = run_iterative(&model, &cfg, 5).unwrap();
/// assert!(result.converged);
/// // The returned assignment is within 10% of the estimated optimum.
/// let gap = (result.final_estimate.upb.point - result.best_performance)
///     / result.final_estimate.upb.point;
/// assert!(gap <= 0.10);
/// ```
pub fn run_iterative<M: PerformanceModel + Sync>(
    model: &M,
    config: &IterativeConfig,
    seed: u64,
) -> Result<IterativeResult, CoreError> {
    run_iterative_obs(model, config, seed, &Obs::disabled())
}

/// [`run_iterative`] with observability: each round records an
/// `iteration` event (the Figure 14 gap trace), every
/// [`DegradationEvent`] is mirrored to the journal as it occurs,
/// measurement batches report through the exec-layer instrumentation,
/// estimation runs through
/// [`SampleStudy::estimate_resilient_obs`], round wall time lands in the
/// `iter_round_ns` histogram, and the loop is bracketed by
/// `iterative_start`/`iterative_done` events. The returned result is
/// **bit-identical** to the unobserved run for every worker count — the
/// journal and metrics are derived from the computation, never fed back
/// into it.
///
/// # Errors
///
/// As [`run_iterative`].
pub fn run_iterative_obs<M: PerformanceModel + Sync>(
    model: &M,
    config: &IterativeConfig,
    seed: u64,
    obs: &Obs,
) -> Result<IterativeResult, CoreError> {
    run_iterative_impl(model, config, seed, obs, None)
}

/// [`run_iterative`] journaled through a durable [`CampaignStore`]:
/// every batch measurement is written to the store's write-ahead log as
/// it completes, and a campaign whose records are already (partially)
/// journaled — an interrupted run, or the same call repeated — replays
/// them instead of re-measuring, continuing mid-round from wherever the
/// log ends. Unjournaled slots consult the store's content-addressed
/// evaluation cache before touching the model.
///
/// **Resume contract:** a campaign killed at any record boundary and
/// re-invoked with the same model, config (ignoring
/// [`IterativeConfig::parallelism`]) and seed produces exactly the
/// [`IterativeResult`] of an uninterrupted run — samples, evaluations,
/// trace, degradation events and all — at any worker count, with or
/// without a recorder attached. A cache hit consumes zero evaluation
/// attempts, so a warm-cache campaign can finish cheaper than a cold
/// one, deterministically.
///
/// # Errors
///
/// As [`run_iterative`]. Store I/O failures never fail the campaign —
/// they are counted on the store handle ([`CampaignStore::io_errors`]).
pub fn run_iterative_persistent<M: PerformanceModel + Sync>(
    model: &M,
    config: &IterativeConfig,
    seed: u64,
    store: &CampaignStore,
) -> Result<IterativeResult, CoreError> {
    run_iterative_impl(model, config, seed, &Obs::disabled(), Some(store))
}

/// [`run_iterative_persistent`] with observability (see
/// [`run_iterative_obs`] for what is recorded; journal replays, cache
/// hits and misses additionally land in `exec_replayed_total`,
/// `exec_cache_hits_total` and `exec_cache_misses_total`).
///
/// # Errors
///
/// As [`run_iterative`].
pub fn run_iterative_persistent_obs<M: PerformanceModel + Sync>(
    model: &M,
    config: &IterativeConfig,
    seed: u64,
    store: &CampaignStore,
    obs: &Obs,
) -> Result<IterativeResult, CoreError> {
    run_iterative_impl(model, config, seed, obs, Some(store))
}

fn run_iterative_impl<M: PerformanceModel + Sync>(
    model: &M,
    config: &IterativeConfig,
    seed: u64,
    obs: &Obs,
    persist: Option<&CampaignStore>,
) -> Result<IterativeResult, CoreError> {
    let mut session = IterativeSession::new(config, seed)?;
    loop {
        if let StepOutcome::Finished(result) = session.step(model, obs, persist)? {
            return Ok(*result);
        }
    }
}

/// Outcome of one [`IterativeSession::step`].
#[derive(Debug, Clone)]
pub enum StepOutcome {
    /// The stopping rule has not fired; call [`IterativeSession::step`]
    /// again to keep sampling.
    Running,
    /// The campaign is over. Further `step` calls are no-ops that return
    /// this same result again. (Boxed so the running variant stays
    /// word-sized.)
    Finished(Box<IterativeResult>),
}

/// A point-in-time view of a session's progress, cheap to take between
/// steps — the payload an online service returns for "best assignment so
/// far" queries without touching the model.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Rounds completed so far (0 until the first step finishes).
    pub rounds: u64,
    /// Assignments measured so far.
    pub samples: usize,
    /// Measurement attempts consumed so far (successes and failures).
    pub evaluations: usize,
    /// Best assignment observed so far (`None` before the initial batch).
    pub best_assignment: Option<Assignment>,
    /// Its measured performance.
    pub best_performance: Option<f64>,
    /// Latest UPB point estimate, if any round has produced one.
    pub estimated_optimal: Option<f64>,
    /// Latest certified-or-degraded gap `(UPB − best)/UPB`.
    pub gap: Option<f64>,
    /// Estimator rung behind the latest estimate.
    pub method: Option<&'static str>,
    /// Degradation events recorded so far.
    pub degradations: usize,
    /// Whether the evaluation budget has run out.
    pub budget_exhausted: bool,
    /// Stop reason, once the session has finished.
    pub stop: Option<StopReason>,
    /// Whether the finished session certified its gap target.
    pub converged: bool,
}

/// The iterative algorithm as a resumable state machine.
///
/// [`run_iterative`] and friends are thin drivers over this type: they
/// construct a session and call [`IterativeSession::step`] until it
/// returns [`StepOutcome::Finished`]. Driving the session manually
/// produces **bit-identical** results, journals, and campaign stores —
/// the step boundary only decides *when* work happens, never *what*
/// happens — which is what lets an online service interleave many
/// campaigns on one thread and still match the offline runs byte for
/// byte.
///
/// Step anatomy: the first step emits `iterative_start` and measures the
/// initial `n_init` batch (journal sequence 0); every step then runs one
/// round — re-estimate the EVT tail on the sample so far, check the
/// stopping rule, and either finalize or measure one `n_delta` extension
/// batch (journal sequence = round index). Concatenating the steps
/// reproduces the original loop's event order exactly.
///
/// A step that returns an error poisons the session: the underlying rng
/// has advanced, so the campaign cannot be resumed in place. Callers
/// should surface the error and discard the session (a persistent
/// campaign can be re-created and will replay its journal).
pub struct IterativeSession {
    config: IterativeConfig,
    seed: u64,
    resilient_cfg: ResilientConfig,
    rng: StdRng,
    study: Option<SampleStudy>,
    events: Vec<DegradationEvent>,
    trace: Vec<IterationTrace>,
    attempts_total: usize,
    budget_exhausted: bool,
    best_seen: f64,
    rounds_without_improvement: usize,
    consecutive_bad_estimates: usize,
    degraded_stopping: bool,
    round: u64,
    finished: Option<IterativeResult>,
}

impl IterativeSession {
    /// Validates `config` and prepares a session. No measurement happens
    /// until the first [`IterativeSession::step`]; the model is supplied
    /// per step, so a session owns no model reference and is `Send`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Domain`] on a nonsensical configuration (the same
    /// checks [`run_iterative`] applies).
    pub fn new(config: &IterativeConfig, seed: u64) -> Result<IterativeSession, CoreError> {
        if !(config.acceptable_loss > 0.0 && config.acceptable_loss < 1.0) {
            return Err(CoreError::Domain(format!(
                "acceptable_loss must be in (0, 1), got {}",
                config.acceptable_loss
            )));
        }
        if config.n_init < 100 || config.n_delta == 0 {
            return Err(CoreError::Domain(
                "n_init must be >= 100 and n_delta >= 1".into(),
            ));
        }
        if config.eval_budget < config.n_init {
            return Err(CoreError::Domain(format!(
                "eval_budget {} cannot even cover n_init {}",
                config.eval_budget, config.n_init
            )));
        }
        // A slot's retries spend the campaign's attempt budget, so a
        // larger limit could never take effect; the bound also keeps
        // `1 + max_eval_retries` from overflowing.
        if config.max_eval_retries >= config.eval_budget {
            return Err(CoreError::Domain(format!(
                "max_eval_retries {} must be below eval_budget {}",
                config.max_eval_retries, config.eval_budget
            )));
        }
        if config.stall_rounds == 0 || config.estimate_failure_limit == 0 {
            return Err(CoreError::Domain(
                "stall_rounds and estimate_failure_limit must be >= 1".into(),
            ));
        }
        let resilient_cfg = ResilientConfig {
            base: PotConfig {
                confidence: config.confidence,
                ..PotConfig::default()
            },
            policy: config.fallback,
            seed: seed ^ 0xE57,
            ..ResilientConfig::default()
        };
        Ok(IterativeSession {
            config: config.clone(),
            seed,
            resilient_cfg,
            rng: StdRng::seed_from_u64(seed),
            study: None,
            events: Vec::new(),
            trace: Vec::new(),
            attempts_total: 0,
            budget_exhausted: false,
            best_seen: 0.0,
            rounds_without_improvement: 0,
            consecutive_bad_estimates: 0,
            degraded_stopping: false,
            round: 1,
            finished: None,
        })
    }

    /// The campaign seed this session was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The (validated) configuration this session runs under.
    #[must_use]
    pub fn config(&self) -> &IterativeConfig {
        &self.config
    }

    /// The final result, once a step has returned
    /// [`StepOutcome::Finished`].
    #[must_use]
    pub fn result(&self) -> Option<&IterativeResult> {
        self.finished.as_ref()
    }

    /// Cheap progress view for online "best so far" queries. Reflects
    /// the state as of the last completed step; never touches the model.
    #[must_use]
    pub fn snapshot(&self) -> SessionSnapshot {
        let last = self.trace.last();
        SessionSnapshot {
            rounds: self.trace.len() as u64,
            samples: self.study.as_ref().map_or(0, SampleStudy::len),
            evaluations: self.attempts_total,
            best_assignment: self.study.as_ref().map(|s| s.best_assignment().clone()),
            best_performance: self.study.as_ref().map(SampleStudy::best_performance),
            estimated_optimal: last.map(|t| t.estimated_optimal),
            gap: last.map(|t| t.gap),
            method: last.map(|t| t.method),
            degradations: self.events.len(),
            budget_exhausted: self.budget_exhausted,
            stop: self.finished.as_ref().map(|r| r.stop),
            converged: self.finished.as_ref().is_some_and(|r| r.converged),
        }
    }

    /// Runs one bounded unit of the campaign: the first call measures
    /// the initial `n_init` batch, and every call runs one
    /// estimate-check-extend round (see the type docs for the exact
    /// anatomy). Pass `persist` to journal measurements through a
    /// durable [`CampaignStore`] with the same replay semantics as
    /// [`run_iterative_persistent`].
    ///
    /// # Errors
    ///
    /// As [`run_iterative`]; an error poisons the session.
    pub fn step<M: PerformanceModel + Sync>(
        &mut self,
        model: &M,
        obs: &Obs,
        persist: Option<&CampaignStore>,
    ) -> Result<StepOutcome, CoreError> {
        let mut backend = LocalBackend {
            model,
            parallelism: self.config.parallelism,
        };
        self.step_with_backend(&mut backend, obs, persist)
    }

    /// [`IterativeSession::step`] against an explicit [`BatchBackend`]
    /// — the seam the distributed fleet coordinator drives. The session
    /// supplies the deterministic batch inputs (primaries, salt,
    /// sequence, draw cap) and resolves and journals through `persist`
    /// as `step` does; the backend decides where the unresolved slots
    /// evaluate. A conforming backend (see [`BatchBackend`]) produces
    /// results, journals, and metrics bit-identical to the in-process
    /// path.
    ///
    /// # Errors
    ///
    /// As [`run_iterative`]; an error poisons the session.
    pub fn step_with_backend<B: BatchBackend + ?Sized>(
        &mut self,
        backend: &mut B,
        obs: &Obs,
        persist: Option<&CampaignStore>,
    ) -> Result<StepOutcome, CoreError> {
        if let Some(result) = &self.finished {
            return Ok(StepOutcome::Finished(Box::new(result.clone())));
        }
        let config = &self.config;
        let campaign =
            persist::iterative_campaign_id(self.seed, config, backend.tasks(), backend.topology());

        // Step 1 (first call only): initial sample (batch sequence 0).
        if self.study.is_none() {
            obs.emit(|| {
                Event::new("iterative_start")
                    .with("n_init", config.n_init)
                    .with("n_delta", config.n_delta)
                    .with("acceptable_loss", config.acceptable_loss)
                    .with("seed", self.seed)
                    .with("workers", config.parallelism.workers)
            });
            let batch = measure_with_backend(
                backend,
                persist,
                campaign,
                0,
                config.n_init,
                config.max_eval_retries,
                config.eval_budget,
                &mut self.rng,
                split_seed(self.seed ^ BATCH_SALT, 0),
                obs,
            )?;
            self.attempts_total += batch.attempts;
            note_batch_metrics(obs, &batch);
            record_batch_events(&mut self.events, obs, &batch, batch.assignments.len());
            self.budget_exhausted |= batch.budget_exhausted;
            if batch.assignments.is_empty() {
                return Err(CoreError::Measurement(MeasureError::Failed(format!(
                    "evaluation budget of {} attempts produced no successful measurement",
                    config.eval_budget
                ))));
            }
            let study = SampleStudy::from_measurements(batch.assignments, batch.performances)?;
            self.best_seen = study.best_performance();
            self.study = Some(study);
        }
        let Some(study) = self.study.as_mut() else {
            return Err(CoreError::Domain(
                "iterative session lost its sample study".into(),
            ));
        };

        // One round. The span is dropped at the end of the step
        // (finish and extend alike), recording the round's wall time.
        let _round_span = obs.span("iter_round_ns");
        obs.counter_add("iter_rounds_total", 1);
        // Step 2: estimate the optimal system performance through the
        // fallback ladder. A sample whose upper tail does not (yet)
        // support a profile-grade fit is not a failure of the algorithm —
        // it is the signal to keep sampling, so degraded and failed
        // estimates feed back into Step 4 like an unmet target.
        let report = match study.estimate_resilient_obs(&self.resilient_cfg, obs) {
            Ok(r) => {
                if r.is_degraded() {
                    self.consecutive_bad_estimates += 1;
                    note(
                        &mut self.events,
                        obs,
                        DegradationEvent::EstimateFellBack {
                            samples: study.len(),
                            method: r.method.name(),
                        },
                    );
                } else {
                    self.consecutive_bad_estimates = 0;
                }
                Some(r)
            }
            Err(e) => {
                self.consecutive_bad_estimates += 1;
                note(
                    &mut self.events,
                    obs,
                    DegradationEvent::EstimateUnusable {
                        samples: study.len(),
                        error: e.to_string(),
                    },
                );
                None
            }
        };
        let certified_gap = report
            .as_ref()
            .filter(|r| !r.is_degraded())
            .map(|r| r.improvement_headroom());
        if let Some(r) = &report {
            let entry = IterationTrace {
                samples: study.len(),
                best_observed: study.best_performance(),
                estimated_optimal: r.upb.point,
                gap: r.improvement_headroom(),
                method: r.method.name(),
            };
            obs.emit(|| entry.to_event());
            // Live-progress gauges: the latest round's convergence state,
            // scraped from any endpoint's `/metrics`.
            obs.gauge_set("iter_round", self.round as f64);
            obs.gauge_set("iter_samples", entry.samples as f64);
            obs.gauge_set("iter_best_observed", entry.best_observed);
            obs.gauge_set("iter_estimated_optimal", entry.estimated_optimal);
            obs.gauge_set("iter_gap", entry.gap);
            self.trace.push(entry);
        }

        if !self.degraded_stopping
            && self.consecutive_bad_estimates >= config.estimate_failure_limit
        {
            self.degraded_stopping = true;
            note(
                &mut self.events,
                obs,
                DegradationEvent::StoppingRuleDegraded {
                    samples: study.len(),
                },
            );
        }

        // Step 3: accept or iterate.
        let stop = if certified_gap.map(|g| g <= config.acceptable_loss) == Some(true) {
            Some(StopReason::TargetMet)
        } else if self.budget_exhausted {
            Some(StopReason::EvalBudget)
        } else if study.len() + config.n_delta > config.max_samples {
            Some(StopReason::MaxSamples)
        } else if self.rounds_without_improvement >= config.stall_rounds {
            Some(if self.degraded_stopping {
                StopReason::RelativeImprovement
            } else {
                StopReason::Stalled
            })
        } else {
            None
        };
        if let Some(stop) = stop {
            // Terminating without any estimate this round (a restrictive
            // policy, or too little finite data): surface the estimation
            // failure to the caller, like the strict algorithm did.
            let final_estimate = match report {
                Some(r) => r,
                None => study.estimate_resilient(&self.resilient_cfg)?,
            };
            let best_assignment = study.best_assignment().clone();
            let best_performance = study.best_performance();
            obs.emit(|| {
                Event::new("iterative_done")
                    .with("stop", stop.name())
                    .with("converged", stop == StopReason::TargetMet)
                    .with("samples_used", study.len())
                    .with("evaluations", self.attempts_total)
                    .with("best_performance", best_performance)
                    .with("estimated_optimal", final_estimate.upb.point)
                    .with("method", final_estimate.method.name())
                    .with("degradations", self.events.len())
            });
            let result = IterativeResult {
                best_assignment,
                best_performance,
                final_estimate,
                samples_used: study.len(),
                evaluations: self.attempts_total,
                converged: stop == StopReason::TargetMet,
                stop,
                trace: self.trace.clone(),
                events: self.events.clone(),
            };
            self.finished = Some(result.clone());
            return Ok(StepOutcome::Finished(Box::new(result)));
        }

        // Step 4: extend the sample by N_delta and re-analyze. The
        // round index doubles as the batch's journal sequence number.
        let batch = measure_with_backend(
            backend,
            persist,
            campaign,
            self.round,
            config.n_delta,
            config.max_eval_retries,
            config.eval_budget - self.attempts_total,
            &mut self.rng,
            split_seed(self.seed ^ BATCH_SALT, self.round),
            obs,
        )?;
        self.round += 1;
        self.attempts_total += batch.attempts;
        note_batch_metrics(obs, &batch);
        self.budget_exhausted |= batch.budget_exhausted;
        if self.budget_exhausted {
            note(
                &mut self.events,
                obs,
                DegradationEvent::EvalBudgetExhausted {
                    samples: study.len() + batch.assignments.len(),
                    attempts: self.attempts_total,
                },
            );
        }
        record_batch_events(
            &mut self.events,
            obs,
            &batch,
            study.len() + batch.assignments.len(),
        );
        study.extend_measured(batch.assignments, batch.performances)?;

        let best_now = study.best_performance();
        if best_now > self.best_seen * (1.0 + config.min_rel_improvement) {
            self.best_seen = best_now;
            self.rounds_without_improvement = 0;
        } else {
            self.rounds_without_improvement += 1;
        }
        Ok(StepOutcome::Running)
    }
}

/// Appends a degradation event to the result's log and mirrors it to
/// the journal.
fn note(events: &mut Vec<DegradationEvent>, obs: &Obs, ev: DegradationEvent) {
    obs.emit(|| ev.to_event());
    events.push(ev);
}

/// Accumulates one batch's attempt/retry/redraw bookkeeping into the
/// iterative-loop counters.
fn note_batch_metrics(obs: &Obs, batch: &Batch) {
    obs.counter_add("iter_samples_total", batch.assignments.len() as u64);
    obs.counter_add("iter_attempts_total", batch.attempts as u64);
    obs.counter_add("iter_retries_total", batch.retries as u64);
    obs.counter_add("iter_redrawn_total", batch.redrawn as u64);
}

fn record_batch_events(
    events: &mut Vec<DegradationEvent>,
    obs: &Obs,
    batch: &Batch,
    samples: usize,
) {
    if batch.retries > 0 {
        note(
            events,
            obs,
            DegradationEvent::MeasurementRetried {
                samples,
                retries: batch.retries,
            },
        );
    }
    if batch.redrawn > 0 {
        note(
            events,
            obs,
            DegradationEvent::AssignmentRedrawn {
                samples,
                redrawn: batch.redrawn,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyModel};
    use crate::model::SyntheticModel;
    use optassign_sim::Topology;

    fn model() -> SyntheticModel {
        SyntheticModel::new(Topology::ultrasparc_t2(), 8, 2.0e6)
    }

    /// Deterministic bounded-tail model with real headroom: performance
    /// `B·(1 − v^¼)` with `v` a per-assignment hash uniform gives a GPD
    /// tail of shape −0.25 whose upper bound `B` stays ~20% above any
    /// feasible sample maximum — so sub-percent gap targets are
    /// genuinely unreachable (unlike [`SyntheticModel`], whose estimated
    /// UPB pins to the best observation within 1e-10).
    struct BoundedTail;
    impl PerformanceModel for BoundedTail {
        fn tasks(&self) -> usize {
            8
        }
        fn topology(&self) -> Topology {
            Topology::ultrasparc_t2()
        }
        fn evaluate(&self, assignment: &Assignment) -> f64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &c in assignment.contexts() {
                h ^= c as u64 + 1;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h ^= h >> 31;
            let v = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            1.0e6 * (1.0 - v.powf(0.25))
        }
    }

    #[test]
    fn converges_and_meets_target() {
        let cfg = IterativeConfig {
            n_init: 500,
            n_delta: 100,
            acceptable_loss: 0.05,
            ..IterativeConfig::default()
        };
        let r = run_iterative(&model(), &cfg, 1).unwrap();
        assert!(r.converged);
        assert_eq!(r.stop, StopReason::TargetMet);
        let gap = (r.final_estimate.upb.point - r.best_performance) / r.final_estimate.upb.point;
        assert!(gap <= 0.05 + 1e-9, "gap = {gap}");
        assert!(r.samples_used >= 500);
        assert_eq!(r.trace.last().unwrap().samples, r.samples_used);
        // Clean model: every measurement succeeds on the first try.
        assert_eq!(r.evaluations, r.samples_used);
        assert!(r.events.is_empty(), "clean run logged {:?}", r.events);
        assert!(!r.final_estimate.is_degraded());
    }

    #[test]
    fn looser_targets_need_no_more_samples() {
        let mk = |loss: f64| IterativeConfig {
            n_init: 500,
            n_delta: 100,
            acceptable_loss: loss,
            ..IterativeConfig::default()
        };
        let tight = run_iterative(&model(), &mk(0.02), 2).unwrap();
        let loose = run_iterative(&model(), &mk(0.20), 2).unwrap();
        assert!(loose.samples_used <= tight.samples_used);
    }

    #[test]
    fn trace_is_monotone_in_samples_and_best() {
        let cfg = IterativeConfig {
            n_init: 400,
            n_delta: 50,
            acceptable_loss: 0.01,
            max_samples: 1500,
            ..IterativeConfig::default()
        };
        let r = run_iterative(&model(), &cfg, 3).unwrap();
        for w in r.trace.windows(2) {
            assert!(w[1].samples > w[0].samples);
            assert!(w[1].best_observed >= w[0].best_observed);
        }
    }

    #[test]
    fn respects_max_samples_cap() {
        // An unreachable target (0.01% loss on a jittery model) must stop
        // at the cap rather than loop forever.
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.0001,
            max_samples: 800,
            ..IterativeConfig::default()
        };
        let r = run_iterative(&model(), &cfg, 4);
        match r {
            Ok(res) => {
                assert!(res.samples_used <= 800);
                if !res.converged {
                    assert!(
                        res.samples_used + cfg.n_delta > 800 || res.stop != StopReason::MaxSamples
                    );
                }
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn rejects_bad_config() {
        let m = model();
        let bad_loss = IterativeConfig {
            acceptable_loss: 0.0,
            ..IterativeConfig::default()
        };
        assert!(run_iterative(&m, &bad_loss, 0).is_err());
        let bad_init = IterativeConfig {
            n_init: 10,
            ..IterativeConfig::default()
        };
        assert!(run_iterative(&m, &bad_init, 0).is_err());
        let bad_budget = IterativeConfig {
            eval_budget: 50,
            ..IterativeConfig::default()
        };
        assert!(run_iterative(&m, &bad_budget, 0).is_err());
        for max_eval_retries in [IterativeConfig::default().eval_budget, usize::MAX] {
            let bad_retries = IterativeConfig {
                max_eval_retries,
                ..IterativeConfig::default()
            };
            assert!(
                matches!(
                    run_iterative(&m, &bad_retries, 0),
                    Err(CoreError::Domain(_))
                ),
                "max_eval_retries={max_eval_retries}"
            );
        }
        let bad_stall = IterativeConfig {
            stall_rounds: 0,
            ..IterativeConfig::default()
        };
        assert!(run_iterative(&m, &bad_stall, 0).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = IterativeConfig {
            n_init: 400,
            acceptable_loss: 0.05,
            ..IterativeConfig::default()
        };
        let a = run_iterative(&model(), &cfg, 9).unwrap();
        let b = run_iterative(&model(), &cfg, 9).unwrap();
        assert_eq!(a.samples_used, b.samples_used);
        assert_eq!(a.best_performance, b.best_performance);
    }

    #[test]
    fn parallel_batches_are_bit_identical_to_serial() {
        let faulty = FaultyModel::new(model(), FaultPlan::light(55));
        let mk = |workers: usize| IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.05,
            parallelism: Parallelism::new(workers),
            ..IterativeConfig::default()
        };
        let serial = run_iterative(&faulty, &mk(1), 19).unwrap();
        for workers in [2, 4, 7] {
            let par = run_iterative(&faulty, &mk(workers), 19).unwrap();
            assert_eq!(par.samples_used, serial.samples_used, "workers={workers}");
            assert_eq!(par.evaluations, serial.evaluations, "workers={workers}");
            assert_eq!(
                par.best_performance, serial.best_performance,
                "workers={workers}"
            );
            assert_eq!(
                par.final_estimate.upb.point, serial.final_estimate.upb.point,
                "workers={workers}"
            );
            assert_eq!(par.trace, serial.trace, "workers={workers}");
            assert_eq!(par.events, serial.events, "workers={workers}");
        }
    }

    #[test]
    fn observed_run_is_bit_identical_and_journals_each_round() {
        use optassign_obs::{FakeClock, MemoryRecorder, Obs};
        use std::sync::Arc;

        let faulty = FaultyModel::new(model(), FaultPlan::light(55));
        let mk = |workers: usize| IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.05,
            parallelism: Parallelism::new(workers),
            ..IterativeConfig::default()
        };
        let plain = run_iterative(&faulty, &mk(1), 19).unwrap();
        for workers in [1, 4] {
            let recorder = Arc::new(MemoryRecorder::default());
            let obs = Obs::new(
                Box::new(Arc::clone(&recorder)),
                Box::new(Arc::new(FakeClock::new(0))),
            );
            let observed = run_iterative_obs(&faulty, &mk(workers), 19, &obs).unwrap();
            assert_eq!(observed.samples_used, plain.samples_used);
            assert_eq!(observed.evaluations, plain.evaluations);
            assert_eq!(observed.best_performance, plain.best_performance);
            assert_eq!(observed.trace, plain.trace);
            assert_eq!(observed.events, plain.events);

            let lines = recorder.lines();
            let iterations = lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"iteration\""))
                .count();
            assert_eq!(iterations, plain.trace.len(), "one journal line per round");
            let degradations = lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"degradation\""))
                .count();
            assert_eq!(degradations, plain.events.len());
            assert!(lines.iter().any(|l| l.contains("\"iterative_done\"")));

            let metrics = obs.metrics();
            assert_eq!(
                metrics.counter("iter_attempts_total"),
                plain.evaluations as u64
            );
            assert_eq!(
                metrics.counter("iter_rounds_total"),
                plain.trace.len() as u64
            );
        }
    }

    #[test]
    fn manual_stepping_matches_driver_loop() {
        use optassign_obs::{FakeClock, MemoryRecorder, Obs};
        use std::sync::Arc;

        let faulty = FaultyModel::new(model(), FaultPlan::light(55));
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.05,
            ..IterativeConfig::default()
        };
        let journal = |obs_run: &dyn Fn(&Obs) -> IterativeResult| {
            let recorder = Arc::new(MemoryRecorder::default());
            let obs = Obs::new(
                Box::new(Arc::clone(&recorder)),
                Box::new(Arc::new(FakeClock::new(0))),
            );
            let r = obs_run(&obs);
            (r, recorder.lines())
        };
        let (driver, driver_lines) =
            journal(&|obs| run_iterative_obs(&faulty, &cfg, 19, obs).unwrap());
        let (stepped, stepped_lines) = journal(&|obs| {
            let mut session = IterativeSession::new(&cfg, 19).unwrap();
            let mut steps = 0usize;
            loop {
                steps += 1;
                assert!(steps < 10_000, "session failed to terminate");
                match session.step(&faulty, obs, None).unwrap() {
                    StepOutcome::Running => {
                        let snap = session.snapshot();
                        assert!(snap.samples >= cfg.n_init);
                        assert!(snap.best_performance.is_some());
                        assert!(snap.stop.is_none());
                    }
                    StepOutcome::Finished(r) => return *r,
                }
            }
        });
        assert_eq!(stepped.samples_used, driver.samples_used);
        assert_eq!(stepped.evaluations, driver.evaluations);
        assert_eq!(stepped.best_performance, driver.best_performance);
        assert_eq!(
            stepped.final_estimate.upb.point,
            driver.final_estimate.upb.point
        );
        assert_eq!(stepped.stop, driver.stop);
        assert_eq!(stepped.trace, driver.trace);
        assert_eq!(stepped.events, driver.events);
        // The step boundary must not reorder or drop a single journal
        // line: the concatenated steps are byte-identical to the loop.
        assert_eq!(stepped_lines, driver_lines);
    }

    #[test]
    fn step_after_finish_returns_same_result() {
        let cfg = IterativeConfig {
            n_init: 300,
            acceptable_loss: 0.10,
            ..IterativeConfig::default()
        };
        let m = model();
        let obs = Obs::disabled();
        let mut session = IterativeSession::new(&cfg, 7).unwrap();
        let first = loop {
            if let StepOutcome::Finished(r) = session.step(&m, &obs, None).unwrap() {
                break r;
            }
        };
        // The session is terminal: stepping again re-serves the result
        // without touching the model, and the snapshot agrees.
        let StepOutcome::Finished(again) = session.step(&m, &obs, None).unwrap() else {
            panic!("finished session resumed running");
        };
        assert_eq!(again.samples_used, first.samples_used);
        assert_eq!(again.best_performance, first.best_performance);
        let snap = session.snapshot();
        assert_eq!(snap.stop, Some(first.stop));
        assert_eq!(snap.converged, first.converged);
        assert_eq!(snap.samples, first.samples_used);
        assert_eq!(snap.evaluations, first.evaluations);
        assert_eq!(
            session.result().map(|r| r.samples_used),
            Some(first.samples_used)
        );
    }

    #[test]
    fn snapshot_before_first_step_is_empty() {
        let session = IterativeSession::new(&IterativeConfig::default(), 3).unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.samples, 0);
        assert_eq!(snap.rounds, 0);
        assert!(snap.best_assignment.is_none());
        assert!(snap.gap.is_none());
        assert!(snap.stop.is_none());
        assert_eq!(session.seed(), 3);
        assert_eq!(session.config(), &IterativeConfig::default());
        assert!(session.result().is_none());
    }

    #[test]
    fn a_whole_batch_lease_journals_identically_to_the_local_batch() {
        use optassign_store::WAL_FILE;

        let m = model();
        let cfg = IterativeConfig {
            n_init: 120,
            acceptable_loss: 0.5,
            ..IterativeConfig::default()
        };
        let seed = 21;
        let root = std::env::temp_dir().join(format!("optassign-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();

        // Reference: the initial batch journaled by the local path.
        let local_dir = root.join("local");
        let local = CampaignStore::open(&local_dir).unwrap();
        let mut session = IterativeSession::new(&cfg, seed).unwrap();
        session.step(&m, &Obs::disabled(), Some(&local)).unwrap();
        local.sync();
        drop(local);

        // Reproduce the same batch as one lease of all its slots, built
        // the way the fleet coordinator builds a lease.
        let campaign = persist::iterative_campaign_id(seed, &cfg, m.tasks(), m.topology());
        let mut rng = StdRng::seed_from_u64(seed);
        let primaries: Vec<Assignment> = (0..cfg.n_init)
            .map(|_| random_assignment(m.tasks(), m.topology(), &mut rng).unwrap())
            .collect();
        let batch_salt = split_seed(seed ^ BATCH_SALT, 0);
        let draw_cap = 4usize.max(
            cfg.eval_budget
                .div_ceil(cfg.n_init * (1 + cfg.max_eval_retries)),
        );
        let leased_dir = root.join("leased");
        let store = CampaignStore::open(&leased_dir).unwrap();
        let lease = LeaseRequest {
            campaign,
            sequence: 0,
            batch_salt,
            max_retries: cfg.max_eval_retries,
            draw_cap,
            slots: (0..cfg.n_init as u64).collect(),
            primaries,
        };
        let out = measure_leased_slots(
            &m,
            &lease,
            &store,
            &NoPeers,
            Parallelism::default(),
            &Obs::disabled(),
            0,
        )
        .unwrap();
        assert_eq!(out.len(), cfg.n_init);
        assert!(out
            .iter()
            .all(|o| o.resolution == LeaseResolution::Evaluated));
        store.sync();
        drop(store);
        assert_eq!(
            std::fs::read(leased_dir.join(WAL_FILE)).unwrap(),
            std::fs::read(local_dir.join(WAL_FILE)).unwrap(),
            "a whole-batch lease must journal the single-node batch"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn peer_cache_hits_skip_the_model_and_journal_zero_attempts() {
        struct MapPeer(std::collections::HashMap<u64, f64>);
        impl PeerCache for MapPeer {
            fn lookup(&self, key: u64) -> Option<f64> {
                self.0.get(&key).copied()
            }
        }

        let m = model();
        let root = std::env::temp_dir().join(format!("optassign-peer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let primaries: Vec<Assignment> = (0..4)
            .map(|_| random_assignment(m.tasks(), m.topology(), &mut rng).unwrap())
            .collect();
        let peers = MapPeer(
            primaries
                .iter()
                .zip(0u64..)
                .map(|(p, slot)| (p.canonical_hash(), 42.0 + slot as f64))
                .collect(),
        );
        let store = CampaignStore::open(&root.join("shard")).unwrap();
        let lease = LeaseRequest {
            campaign: 9,
            sequence: 0,
            batch_salt: 1,
            max_retries: 2,
            draw_cap: 4,
            slots: (0..4).collect(),
            primaries,
        };
        let obs = Obs::metrics_only();
        let out = measure_leased_slots(&m, &lease, &store, &peers, Parallelism::default(), &obs, 0)
            .unwrap();
        assert!(out.iter().all(|o| o.resolution == LeaseResolution::PeerHit));
        assert!(out.iter().all(|o| o.outcome.attempts == 0));
        assert_eq!(obs.metrics().counter("fleet_slot_evals_total"), 0);
        assert_eq!(obs.metrics().counter("fleet_peer_hits_total"), 4);
        // The peer-sourced values were journaled for this shard.
        let rec = store.lookup_slot(9, 0, 2).unwrap();
        assert_eq!(rec.value, 44.0);
        assert_eq!(rec.attempts, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn lease_with_unpaired_slots_is_a_domain_error_and_journals_nothing() {
        let m = model();
        let root = std::env::temp_dir().join(format!("optassign-unpaired-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = CampaignStore::open(&root).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let lease = LeaseRequest {
            campaign: 9,
            sequence: 0,
            batch_salt: 1,
            max_retries: 0,
            draw_cap: 1,
            slots: vec![0, 1, 2],
            primaries: vec![random_assignment(m.tasks(), m.topology(), &mut rng).unwrap()],
        };
        let err = measure_leased_slots(
            &m,
            &lease,
            &store,
            &NoPeers,
            Parallelism::serial(),
            &Obs::disabled(),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Domain(_)), "{err}");
        assert_eq!(store.journaled_measurements(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stop_reason_names_are_stable() {
        let names: Vec<&str> = [
            StopReason::TargetMet,
            StopReason::MaxSamples,
            StopReason::EvalBudget,
            StopReason::Stalled,
            StopReason::RelativeImprovement,
        ]
        .iter()
        .map(|s| s.name())
        .collect();
        assert_eq!(
            names,
            [
                "target_met",
                "max_samples",
                "eval_budget",
                "stalled",
                "relative_improvement"
            ]
        );
    }

    #[test]
    fn survives_light_fault_injection() {
        let faulty = FaultyModel::new(model(), FaultPlan::light(77));
        let cfg = IterativeConfig {
            n_init: 500,
            n_delta: 100,
            acceptable_loss: 0.05,
            ..IterativeConfig::default()
        };
        let r = run_iterative(&faulty, &cfg, 10).unwrap();
        // Failures and retries happened…
        assert!(r.evaluations > r.samples_used);
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, DegradationEvent::MeasurementRetried { .. })));
        // …and the loop still terminated within its budgets.
        assert!(r.samples_used <= cfg.max_samples);
        assert!(r.evaluations <= cfg.eval_budget);
    }

    #[test]
    fn budget_exhaustion_stops_the_loop_gracefully() {
        // Half the measurements fail: a tight budget runs out before the
        // (unreachable) gap target is met.
        let plan = FaultPlan {
            fail_rate: 0.5,
            ..FaultPlan::none(5)
        };
        let faulty = FaultyModel::new(BoundedTail, plan);
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 1e-9,
            eval_budget: 1_200,
            max_samples: 50_000,
            ..IterativeConfig::default()
        };
        let r = run_iterative(&faulty, &cfg, 12).unwrap();
        assert_eq!(r.stop, StopReason::EvalBudget);
        assert!(!r.converged);
        assert!(r.evaluations <= 1_200);
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, DegradationEvent::EvalBudgetExhausted { .. })));
    }

    #[test]
    fn stall_detection_stops_an_unreachable_target() {
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 50,
            acceptable_loss: 1e-9,
            max_samples: 1_000_000,
            stall_rounds: 5,
            min_rel_improvement: 0.05, // 5% per round: unattainable
            ..IterativeConfig::default()
        };
        let r = run_iterative(&BoundedTail, &cfg, 12).unwrap();
        assert_eq!(r.stop, StopReason::Stalled);
        assert!(r.samples_used < 10_000, "stall should fire early");
    }

    #[test]
    fn degraded_estimates_never_certify_convergence() {
        // A model with an effectively unbounded upper tail defeats the
        // profile-grade rungs; the PWM/bootstrap fallbacks report a gap of
        // ~0 (they cannot see past the data), which must NOT be accepted
        // as convergence. The loop must instead degrade its stopping rule
        // and exit via relative improvement.
        struct HeavyTail;
        impl PerformanceModel for HeavyTail {
            fn tasks(&self) -> usize {
                4
            }
            fn topology(&self) -> Topology {
                Topology::ultrasparc_t2()
            }
            fn evaluate(&self, assignment: &Assignment) -> f64 {
                // Pareto-ish: placement-hashed uniform mapped through a
                // heavy tail; deterministic per assignment.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &c in assignment.contexts() {
                    h ^= c as u64 + 1;
                    h = h.wrapping_mul(0x0000_0100_0000_01B3);
                }
                h ^= h >> 31;
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                1.0e3 * (1.0 - u).powf(-0.7)
            }
        }
        let cfg = IterativeConfig {
            n_init: 400,
            n_delta: 100,
            acceptable_loss: 0.05,
            max_samples: 3_000,
            stall_rounds: 3,
            estimate_failure_limit: 2,
            ..IterativeConfig::default()
        };
        let r = run_iterative(&HeavyTail, &cfg, 13).unwrap();
        assert!(!r.converged, "degraded estimate certified convergence");
        assert!(matches!(
            r.stop,
            StopReason::RelativeImprovement | StopReason::MaxSamples | StopReason::Stalled
        ));
        assert!(r
            .events
            .iter()
            .any(|e| matches!(e, DegradationEvent::EstimateFellBack { .. })));
    }

    #[test]
    fn strict_policy_reproduces_hard_failure() {
        // With the ladder disabled, an unresolvable tail is a hard error
        // at termination, like the pre-ladder algorithm.
        struct Uniformish;
        impl PerformanceModel for Uniformish {
            fn tasks(&self) -> usize {
                4
            }
            fn topology(&self) -> Topology {
                Topology::ultrasparc_t2()
            }
            fn evaluate(&self, assignment: &Assignment) -> f64 {
                let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
                for &c in assignment.contexts() {
                    h ^= (c as u64).wrapping_add(0x632B_E59B_D9B4_E019);
                    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                }
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                1.0e3 * (1.0 - u).powf(-0.9) // very heavy tail
            }
        }
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.05,
            max_samples: 600,
            fallback: FallbackPolicy::Strict,
            ..IterativeConfig::default()
        };
        match run_iterative(&Uniformish, &cfg, 14) {
            Err(CoreError::Evt(_)) => {}
            Ok(r) => {
                // If strict estimation happened to succeed, it must be the
                // profile rung.
                assert!(!r.final_estimate.is_degraded());
            }
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
}
