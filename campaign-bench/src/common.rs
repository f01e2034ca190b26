//! What every workload shares: the campaign spec, seeding, the outcome
//! record, and the ledger readers.

use optassign::iterative::{run_iterative_persistent, IterativeResult};
use optassign::persist::CampaignStore;
use optassign::{Assignment, Parallelism, PerformanceModel};
use optassign_obs::{MetricsRegistry, Obs};
use optassign_optd::{admission, CampaignSpec, TenantModel};
use std::path::Path;
use std::time::Instant;

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUP_REPEATS: usize = 5;

/// Seed of the history campaign set-up measures. Fixed, so set-up does
/// the same work whatever the run's seed.
pub const HISTORY_SEED: u64 = 20_120_301;

/// A run always finishes at least this many campaigns, however short
/// `--seconds` is.
pub const MIN_CAMPAIGNS: usize = 3;

/// One tenant's campaign request: a fig13-shaped iterative campaign on
/// the simulator-backed IPFwd-L1 model — an initial sample of 100, then
/// rounds of 50 until the 0.05% gap target is certified or 400 samples
/// are measured. (8000 evaluations capture the top 0.05% with
/// probability above 0.95, so admission accepts it as asked.)
#[must_use]
pub fn spec_json(tenant: &str, seed: u64) -> String {
    format!(
        r#"{{"tenant":"{tenant}","seed":{seed},
  "model":{{"kind":"netapps","benchmark":"IPFwd-L1","instances":8,
            "warmup_cycles":2000,"measure_cycles":4000}},
  "config":{{"n_init":100,"n_delta":50,"acceptable_loss":0.0005,
             "max_samples":400,"eval_budget":8000}}}}"#
    )
}

/// Parses and admits a spec exactly as the daemon would, with serial
/// evaluation so every workload gives the simulator one core.
///
/// # Errors
///
/// A spec the parser or admission refuses.
pub fn admitted_spec(tenant: &str, seed: u64) -> Result<CampaignSpec, String> {
    let spec = CampaignSpec::from_json(&spec_json(tenant, seed)).map_err(|e| e.to_string())?;
    let (mut effective, _review) = admission::admit(&spec)
        .map_err(|e| e.to_string())?
        .ok_or("the benchmark spec was refused at admission")?;
    effective.config.parallelism = Parallelism::serial();
    Ok(effective)
}

/// Campaigns in each stream's pool: enough that one costly campaign
/// (some cost 1.4x as much per sample as others) moves a run's figures
/// by only a few percent, few enough that measuring the fleet workload's
/// originals stays a few seconds.
pub const POOL: u64 = 12;

/// The seed of campaign `index` of stream `stream` (one stream per
/// tenant). The run's seed draws each stream a pool of [`POOL`]
/// campaigns, which the stream cycles through for the whole run: every
/// seed is a different set of campaigns, and a run's figures average
/// over its pool rather than over however many fresh draws happened to
/// fit in the window. Kept below 2^52 so it survives any JSON number
/// parser.
#[must_use]
pub fn campaign_seed(seed: u64, stream: u64, index: u64) -> u64 {
    optassign::split_seed(optassign::split_seed(seed, stream + 1), index % POOL) >> 12
}

/// Median of a sample of nanosecond readings (0 for an empty sample).
#[must_use]
pub fn median(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid] as f64
    } else {
        (v[mid - 1] as f64 + v[mid] as f64) / 2.0
    }
}

/// Nanoseconds since `start`, saturating.
#[must_use]
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Busy time and work counts of each layer, summed over a run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Time obtaining measurements: evaluation fan-out regions, or lease
    /// measuring on fleet workers.
    pub measure_ns: u64,
    /// Time in iterative rounds (estimate, stop check, extension).
    pub round_ns: u64,
    /// Time in the EVT estimation ladder.
    pub estimate_ns: u64,
    /// Server-side time answering HTTP requests.
    pub http_ns: u64,
    /// HTTP requests answered.
    pub http_requests: u64,
    /// Model evaluations (measurement attempts) the campaigns spent.
    pub evals: u64,
    /// Slots served by a federation peer instead of the model.
    pub peer_hits: u64,
    /// Bytes of campaign WAL written.
    pub wal_bytes: u64,
    /// Bench-side timings of single simulator evaluations.
    pub sim_eval_ns: Vec<u64>,
}

impl Layers {
    /// Adds what a metrics registry recorded. `measure` names the
    /// histogram that times measurement in this registry's process role.
    pub fn absorb(&mut self, reg: &MetricsRegistry, measure: &str) {
        let hist = |name: &str| reg.histogram(name).map_or(0, |h| h.sum());
        self.measure_ns += hist(measure);
        self.round_ns += hist("iter_round_ns");
        self.estimate_ns += hist("evt_estimate_ns");
        self.http_ns += reg
            .histograms()
            .filter(|(n, _)| n.starts_with("http_request_duration_ns"))
            .map(|(_, h)| h.sum())
            .sum::<u64>();
        self.absorb_requests(reg);
        self.evals += reg.counter("iter_attempts_total");
        self.peer_hits += reg.counter(optassign_obs::fleet_counters::PEER_HITS);
    }

    /// Adds only the request count of a registry whose server answers
    /// requests made from inside another server's handler: that time is
    /// already part of the outer request's.
    pub fn absorb_requests(&mut self, reg: &MetricsRegistry) {
        self.http_requests += reg
            .counters()
            .filter(|(n, _)| n.starts_with("http_requests_total"))
            .map(|(_, v)| v)
            .sum::<u64>();
    }
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Campaigns started.
    pub attempted: u64,
    /// Campaigns that failed, or whose output failed a check.
    pub failed: u64,
    /// Whether the run-level checks (byte identity against the offline
    /// reference) held.
    pub checks_ok: bool,
    /// Wall-clock of every campaign that finished and checked out.
    pub campaign_ns: Vec<u64>,
    /// Samples those campaigns delivered.
    pub samples: u64,
    /// Wall-clock from the first campaign's start to the last one's end.
    pub window_ns: u64,
    /// Wall-clock of each set-up repetition.
    pub setup_ns: Vec<u64>,
    /// The per-layer ledger.
    pub layers: Layers,
}

impl Outcome {
    /// Records a campaign that finished and checked out.
    pub fn finished(&mut self, elapsed_ns: u64, samples: usize) {
        self.campaign_ns.push(elapsed_ns);
        self.samples += samples as u64;
    }

    /// Campaign wall-clock per sample delivered, summed over campaigns:
    /// they stop after 100 to 400 samples, so a median would land on
    /// either kind.
    #[must_use]
    pub fn ns_per_sample(&self) -> f64 {
        self.campaign_ns.iter().sum::<u64>() as f64 / self.samples.max(1) as f64
    }

    /// Every campaign and every run-level check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks_ok && self.failed == 0 && !self.campaign_ns.is_empty()
    }
}

/// The observability handle of one process role: off for end-to-end
/// runs, a live metrics registry for ledger runs.
#[must_use]
pub fn obs_for(trace: bool) -> Obs {
    if trace {
        Obs::metrics_only()
    } else {
        Obs::disabled()
    }
}

/// Re-measures a reported best assignment on a model built by the
/// benchmark and checks it reproduces the reported performance bit for
/// bit. Records the evaluation's wall-clock as the simulator layer's
/// cost per measurement.
pub fn check_best(
    model: &TenantModel,
    contexts: &[usize],
    performance: f64,
    layers: &mut Layers,
) -> bool {
    let Ok(assignment) = Assignment::new(contexts.to_vec(), model.topology()) else {
        return false;
    };
    let start = Instant::now();
    let value = model.evaluate(std::hint::black_box(&assignment));
    layers.sim_eval_ns.push(ns_since(start));
    value.to_bits() == performance.to_bits()
}

/// A finished campaign's result is plausible: it measured at least the
/// initial sample and its best is a real throughput.
#[must_use]
pub fn result_ok(result: &IterativeResult, spec: &CampaignSpec) -> bool {
    result.samples_used >= spec.config.n_init
        && result.samples_used <= spec.config.max_samples
        && result.best_performance.is_finite()
        && result.best_performance > 0.0
}

/// Runs `spec` to completion through the offline persistent driver,
/// journaling into a store at `dir`.
///
/// # Errors
///
/// Store or campaign failures.
pub fn measure_offline(
    spec: &CampaignSpec,
    model: &TenantModel,
    dir: &Path,
) -> Result<IterativeResult, String> {
    let store = CampaignStore::open(dir).map_err(|e| e.to_string())?;
    run_iterative_persistent(model, &spec.config, spec.seed, &store).map_err(|e| e.to_string())
}

/// The fixed history campaign every workload's set-up measures cold,
/// measured once more offline, untimed, as the reference its WAL must
/// match byte for byte.
pub struct History {
    pub spec: CampaignSpec,
    pub model: TenantModel,
    pub wal: Vec<u8>,
}

impl History {
    /// Measures the reference under `scratch`.
    ///
    /// # Errors
    ///
    /// Store or campaign failures.
    pub fn measure(scratch: &Path) -> Result<History, String> {
        let spec = admitted_spec("history", HISTORY_SEED)?;
        let model = spec.model.build();
        let dir = scratch.join("history-reference");
        measure_offline(&spec, &model, &dir)?;
        let wal = std::fs::read(dir.join("campaign.wal")).map_err(|e| e.to_string())?;
        Ok(History { spec, model, wal })
    }

    /// Whether the campaign store at `dir` journaled exactly the
    /// reference bytes.
    #[must_use]
    pub fn matches(&self, dir: &Path) -> bool {
        !self.wal.is_empty() && std::fs::read(dir.join("campaign.wal")).is_ok_and(|w| w == self.wal)
    }
}

/// Size of a campaign WAL, 0 when absent.
#[must_use]
pub fn wal_size(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("campaign.wal")).map_or(0, |m| m.len())
}
