//! Campaign specifications: the JSON document a tenant submits.
//!
//! A spec names the tenant, the workload (model), the campaign seed, and
//! the iterative-loop configuration (gap target, confidence, budgets).
//! The daemon persists the *effective* spec (after any admission-time
//! degrade) as `spec.json` in the campaign directory, so a restarted
//! daemon rebuilds exactly the session it was running; the rendering is
//! therefore a strict round-trip: `parse(render(spec)) == spec`.
//!
//! Parsing uses the workspace's dependency-free JSON reader
//! ([`optassign_obs::Json`]); rendering is hand-rolled like every other
//! JSON writer in the workspace. Numbers render through Rust's shortest
//! round-trip `Display`, so the bytes are deterministic.

use optassign::iterative::IterativeConfig;
use optassign::model::{MeasureError, PerformanceModel, SimModel, SyntheticModel};
use optassign::Assignment;
use optassign_netapps::suite::MAX_INSTANCES;
use optassign_netapps::Benchmark;
use optassign_obs::{json_string, Json};
use optassign_sim::{MachineConfig, Topology};

/// Default workload-construction seed for netapps models — the bench
/// suite's `BASE_SEED`, so a spec that omits it reproduces the fig13
/// campaign workloads exactly.
pub const DEFAULT_WORKLOAD_SEED: u64 = 0x0A5F_2012;

/// Default simulator warmup window (cycles), matching the case study.
pub const DEFAULT_WARMUP_CYCLES: u64 = 20_000;

/// Default simulator measurement window (cycles), matching the case
/// study.
pub const DEFAULT_MEASURE_CYCLES: u64 = 80_000;

/// A spec that could not be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Which performance model a campaign measures against.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Closed-form synthetic model with a known optimum — fast, used for
    /// tests and service smoke checks.
    Synthetic {
        /// Number of tasks to place.
        tasks: usize,
        /// Base packets-per-second scale.
        base_pps: f64,
    },
    /// Simulator-backed netapps benchmark (the paper's case study).
    Netapps {
        /// Which benchmark of the suite.
        benchmark: Benchmark,
        /// Parallel benchmark instances (3 threads each).
        instances: usize,
        /// Workload-construction seed.
        workload_seed: u64,
        /// Simulator warmup window, cycles.
        warmup_cycles: u64,
        /// Simulator measurement window, cycles.
        measure_cycles: u64,
    },
}

/// What the daemon should do when the requested SLO is infeasible within
/// the evaluation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfeasiblePolicy {
    /// Refuse the campaign with a structured reason (the default).
    Reject,
    /// Admit with the loosest gap target the budget *can* certify at the
    /// requested confidence, reporting the substitution.
    Degrade,
}

/// One tenant's campaign request, fully resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Tenant identifier (free-form, non-empty).
    pub tenant: String,
    /// Campaign seed — with the config and workload, the complete
    /// identity of the campaign's random stream.
    pub seed: u64,
    /// The workload to optimize.
    pub model: ModelSpec,
    /// Iterative-loop configuration. `fallback` and `parallelism` are
    /// daemon-side policy, not part of the wire format (results are
    /// bit-identical at any worker count).
    pub config: IterativeConfig,
    /// Admission policy for infeasible SLOs.
    pub on_infeasible: InfeasiblePolicy,
    /// The originally requested `acceptable_loss`, when admission
    /// degraded it to a feasible one.
    pub degraded_from: Option<f64>,
}

/// Every benchmark of the suite, for name lookup.
const ALL_BENCHMARKS: [Benchmark; 7] = [
    Benchmark::IpFwdL1,
    Benchmark::IpFwdMem,
    Benchmark::PacketAnalyzer,
    Benchmark::AhoCorasick,
    Benchmark::Stateful,
    Benchmark::IpFwdIntAdd,
    Benchmark::IpFwdIntMul,
];

/// Looks a benchmark up by its stable display name (`"IPFwd-L1"`, …).
#[must_use]
pub fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    ALL_BENCHMARKS.into_iter().find(|b| b.name() == name)
}

impl ModelSpec {
    /// Builds the concrete model. Infallible once the spec has parsed:
    /// every field was range-checked at parse time.
    #[must_use]
    pub fn build(&self) -> TenantModel {
        match self {
            ModelSpec::Synthetic { tasks, base_pps } => TenantModel::Synthetic(
                SyntheticModel::new(Topology::ultrasparc_t2(), *tasks, *base_pps),
            ),
            ModelSpec::Netapps {
                benchmark,
                instances,
                workload_seed,
                warmup_cycles,
                measure_cycles,
            } => {
                let machine = MachineConfig::ultrasparc_t2();
                let workload = benchmark.build_workload(*instances, *workload_seed);
                TenantModel::Sim(Box::new(
                    SimModel::new(machine, workload).with_windows(*warmup_cycles, *measure_cycles),
                ))
            }
        }
    }
}

/// The model behind one tenant's campaign: enum dispatch over the
/// concrete models so [`optassign::iterative::IterativeSession::step`]
/// stays statically typed (and the batched hot path of each inner model
/// is preserved — every trait method delegates, including the batch
/// entry points).
pub enum TenantModel {
    /// Closed-form synthetic model.
    Synthetic(SyntheticModel),
    /// Simulator-backed netapps benchmark (boxed: the simulator state
    /// dwarfs the synthetic variant).
    Sim(Box<SimModel>),
}

impl PerformanceModel for TenantModel {
    fn tasks(&self) -> usize {
        match self {
            TenantModel::Synthetic(m) => m.tasks(),
            TenantModel::Sim(m) => m.tasks(),
        }
    }

    fn topology(&self) -> Topology {
        match self {
            TenantModel::Synthetic(m) => m.topology(),
            TenantModel::Sim(m) => m.topology(),
        }
    }

    fn evaluate(&self, assignment: &Assignment) -> f64 {
        match self {
            TenantModel::Synthetic(m) => m.evaluate(assignment),
            TenantModel::Sim(m) => m.evaluate(assignment),
        }
    }

    fn try_evaluate_at(
        &self,
        assignment: &Assignment,
        stream: u64,
        attempt: u32,
    ) -> Result<f64, MeasureError> {
        match self {
            TenantModel::Synthetic(m) => m.try_evaluate_at(assignment, stream, attempt),
            TenantModel::Sim(m) => m.try_evaluate_at(assignment, stream, attempt),
        }
    }

    fn evaluate_batch(&self, assignments: &[Assignment]) -> Vec<f64> {
        match self {
            TenantModel::Synthetic(m) => m.evaluate_batch(assignments),
            TenantModel::Sim(m) => m.evaluate_batch(assignments),
        }
    }

    fn try_evaluate_batch_at(
        &self,
        assignments: &[Assignment],
        keys: &[(u64, u32)],
    ) -> Vec<Result<f64, MeasureError>> {
        match self {
            TenantModel::Synthetic(m) => m.try_evaluate_batch_at(assignments, keys),
            TenantModel::Sim(m) => m.try_evaluate_batch_at(assignments, keys),
        }
    }
}

fn err(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// Rejects unknown keys instead of silently ignoring them: a misplaced
/// field (e.g. `on_infeasible` nested inside `config`) would otherwise
/// change campaign behaviour without any signal to the submitter.
fn check_keys(obj: &Json, what: &str, known: &[&str]) -> Result<(), SpecError> {
    let Some(members) = obj.as_object() else {
        return Err(err(format!("\"{what}\" must be an object")));
    };
    for (key, _) in members {
        if !known.contains(&key.as_str()) {
            return Err(err(format!(
                "unknown key \"{key}\" in {what}; known keys: {}",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

fn obj_u64(obj: &Json, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_u64)
}

fn obj_usize(obj: &Json, key: &str) -> Result<Option<usize>, SpecError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let raw = v
                .as_u64()
                .ok_or_else(|| err(format!("\"{key}\" must be an unsigned integer")))?;
            usize::try_from(raw)
                .map(Some)
                .map_err(|_| err(format!("\"{key}\" is out of range")))
        }
    }
}

fn obj_f64(obj: &Json, key: &str) -> Result<Option<f64>, SpecError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| err(format!("\"{key}\" must be a number"))),
    }
}

impl CampaignSpec {
    /// Parses a campaign spec from its JSON document.
    ///
    /// # Errors
    ///
    /// [`SpecError`] with a human-readable reason on malformed JSON,
    /// missing required fields, unknown benchmarks, or out-of-range
    /// values. Config *semantics* (e.g. `eval_budget >= n_init`) are the
    /// session's job — see
    /// [`optassign::iterative::IterativeSession::new`].
    pub fn from_json(text: &str) -> Result<CampaignSpec, SpecError> {
        let doc = Json::parse(text).ok_or_else(|| err("malformed JSON"))?;
        check_keys(
            &doc,
            "the spec",
            &[
                "tenant",
                "seed",
                "model",
                "config",
                "on_infeasible",
                "degraded_from",
            ],
        )?;
        let tenant = doc
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or_else(|| err("\"tenant\" (string) is required"))?
            .to_string();
        if tenant.is_empty() || tenant.len() > 64 {
            return Err(err("\"tenant\" must be 1..=64 characters"));
        }
        let seed = obj_u64(&doc, "seed").ok_or_else(|| err("\"seed\" (u64) is required"))?;
        let model = doc
            .get("model")
            .ok_or_else(|| err("\"model\" (object) is required"))?;
        let model = parse_model(model)?;
        let mut config = IterativeConfig::default();
        if let Some(c) = doc.get("config") {
            check_keys(
                c,
                "\"config\"",
                &[
                    "n_init",
                    "n_delta",
                    "acceptable_loss",
                    "confidence",
                    "max_samples",
                    "max_eval_retries",
                    "eval_budget",
                    "stall_rounds",
                    "min_rel_improvement",
                    "estimate_failure_limit",
                ],
            )?;
            if let Some(v) = obj_usize(c, "n_init")? {
                config.n_init = v;
            }
            if let Some(v) = obj_usize(c, "n_delta")? {
                config.n_delta = v;
            }
            if let Some(v) = obj_f64(c, "acceptable_loss")? {
                config.acceptable_loss = v;
            }
            if let Some(v) = obj_f64(c, "confidence")? {
                config.confidence = v;
            }
            if let Some(v) = obj_usize(c, "max_samples")? {
                config.max_samples = v;
            }
            if let Some(v) = obj_usize(c, "max_eval_retries")? {
                config.max_eval_retries = v;
            }
            if let Some(v) = obj_usize(c, "eval_budget")? {
                config.eval_budget = v;
            }
            if let Some(v) = obj_usize(c, "stall_rounds")? {
                config.stall_rounds = v;
            }
            if let Some(v) = obj_f64(c, "min_rel_improvement")? {
                config.min_rel_improvement = v;
            }
            if let Some(v) = obj_usize(c, "estimate_failure_limit")? {
                config.estimate_failure_limit = v;
            }
        }
        let on_infeasible = match doc.get("on_infeasible").and_then(Json::as_str) {
            None | Some("reject") => InfeasiblePolicy::Reject,
            Some("degrade") => InfeasiblePolicy::Degrade,
            Some(other) => {
                return Err(err(format!(
                    "\"on_infeasible\" must be \"reject\" or \"degrade\", got \"{other}\""
                )))
            }
        };
        let degraded_from = obj_f64(&doc, "degraded_from")?;
        Ok(CampaignSpec {
            tenant,
            seed,
            model,
            config,
            on_infeasible,
            degraded_from,
        })
    }

    /// Renders the spec back to its JSON document. Strict round-trip:
    /// `from_json(to_json(spec)) == spec`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let model = match &self.model {
            ModelSpec::Synthetic { tasks, base_pps } => {
                format!("{{\"kind\":\"synthetic\",\"tasks\":{tasks},\"base_pps\":{base_pps}}}")
            }
            ModelSpec::Netapps {
                benchmark,
                instances,
                workload_seed,
                warmup_cycles,
                measure_cycles,
            } => format!(
                "{{\"kind\":\"netapps\",\"benchmark\":\"{}\",\"instances\":{instances},\
                 \"workload_seed\":{workload_seed},\"warmup_cycles\":{warmup_cycles},\
                 \"measure_cycles\":{measure_cycles}}}",
                benchmark.name()
            ),
        };
        let c = &self.config;
        let policy = match self.on_infeasible {
            InfeasiblePolicy::Reject => "reject",
            InfeasiblePolicy::Degrade => "degrade",
        };
        let degraded = match self.degraded_from {
            Some(v) => format!(",\"degraded_from\":{v}"),
            None => String::new(),
        };
        format!(
            "{{\"tenant\":{},\"seed\":{},\"model\":{model},\"config\":{{\
             \"n_init\":{},\"n_delta\":{},\"acceptable_loss\":{},\"confidence\":{},\
             \"max_samples\":{},\"max_eval_retries\":{},\"eval_budget\":{},\
             \"stall_rounds\":{},\"min_rel_improvement\":{},\"estimate_failure_limit\":{}}},\
             \"on_infeasible\":\"{policy}\"{degraded}}}",
            json_string(&self.tenant),
            self.seed,
            c.n_init,
            c.n_delta,
            c.acceptable_loss,
            c.confidence,
            c.max_samples,
            c.max_eval_retries,
            c.eval_budget,
            c.stall_rounds,
            c.min_rel_improvement,
            c.estimate_failure_limit,
        )
    }
}

fn parse_model(model: &Json) -> Result<ModelSpec, SpecError> {
    let kind = model
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("model needs a \"kind\" (\"synthetic\" or \"netapps\")"))?;
    match kind {
        "synthetic" => {
            check_keys(model, "the synthetic model", &["kind", "tasks", "base_pps"])?;
            let tasks =
                obj_usize(model, "tasks")?.ok_or_else(|| err("synthetic model needs \"tasks\""))?;
            if tasks == 0 || tasks > 256 {
                return Err(err("\"tasks\" must be in 1..=256"));
            }
            let base_pps = obj_f64(model, "base_pps")?.unwrap_or(1.0e6);
            if !(base_pps.is_finite() && base_pps > 0.0) {
                return Err(err("\"base_pps\" must be a positive finite number"));
            }
            Ok(ModelSpec::Synthetic { tasks, base_pps })
        }
        "netapps" => {
            check_keys(
                model,
                "the netapps model",
                &[
                    "kind",
                    "benchmark",
                    "instances",
                    "workload_seed",
                    "warmup_cycles",
                    "measure_cycles",
                ],
            )?;
            let name = model
                .get("benchmark")
                .and_then(Json::as_str)
                .ok_or_else(|| err("netapps model needs a \"benchmark\" name"))?;
            let benchmark = benchmark_by_name(name)
                .ok_or_else(|| err(format!("unknown benchmark \"{name}\"")))?;
            let instances = obj_usize(model, "instances")?.unwrap_or(MAX_INSTANCES);
            if !(1..=MAX_INSTANCES).contains(&instances) {
                return Err(err(format!("\"instances\" must be in 1..={MAX_INSTANCES}")));
            }
            let workload_seed = obj_u64(model, "workload_seed").unwrap_or(DEFAULT_WORKLOAD_SEED);
            let warmup_cycles = obj_u64(model, "warmup_cycles").unwrap_or(DEFAULT_WARMUP_CYCLES);
            let measure_cycles = obj_u64(model, "measure_cycles").unwrap_or(DEFAULT_MEASURE_CYCLES);
            if measure_cycles == 0 {
                return Err(err("\"measure_cycles\" must be >= 1"));
            }
            Ok(ModelSpec::Netapps {
                benchmark,
                instances,
                workload_seed,
                warmup_cycles,
                measure_cycles,
            })
        }
        other => Err(err(format!("unknown model kind \"{other}\""))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            tenant: "team-a".into(),
            seed: 42,
            model: ModelSpec::Netapps {
                benchmark: Benchmark::IpFwdL1,
                instances: 8,
                workload_seed: DEFAULT_WORKLOAD_SEED,
                warmup_cycles: 20_000,
                measure_cycles: 80_000,
            },
            config: IterativeConfig {
                n_init: 300,
                n_delta: 100,
                acceptable_loss: 0.05,
                eval_budget: 20_000,
                ..IterativeConfig::default()
            },
            on_infeasible: InfeasiblePolicy::Degrade,
            degraded_from: None,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let spec = sample_spec();
        let parsed = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);

        let mut degraded = spec;
        degraded.degraded_from = Some(0.01);
        let parsed = CampaignSpec::from_json(&degraded.to_json()).unwrap();
        assert_eq!(parsed, degraded);
    }

    #[test]
    fn parses_a_minimal_synthetic_spec_with_defaults() {
        let spec = CampaignSpec::from_json(
            r#"{"tenant":"t","seed":7,"model":{"kind":"synthetic","tasks":8}}"#,
        )
        .unwrap();
        assert_eq!(spec.tenant, "t");
        assert_eq!(spec.seed, 7);
        assert_eq!(
            spec.model,
            ModelSpec::Synthetic {
                tasks: 8,
                base_pps: 1.0e6
            }
        );
        assert_eq!(spec.config, IterativeConfig::default());
        assert_eq!(spec.on_infeasible, InfeasiblePolicy::Reject);
    }

    #[test]
    fn netapps_defaults_reproduce_the_case_study_shape() {
        let spec = CampaignSpec::from_json(
            r#"{"tenant":"t","seed":1,"model":{"kind":"netapps","benchmark":"IPFwd-L1"}}"#,
        )
        .unwrap();
        assert_eq!(
            spec.model,
            ModelSpec::Netapps {
                benchmark: Benchmark::IpFwdL1,
                instances: MAX_INSTANCES,
                workload_seed: DEFAULT_WORKLOAD_SEED,
                warmup_cycles: DEFAULT_WARMUP_CYCLES,
                measure_cycles: DEFAULT_MEASURE_CYCLES,
            }
        );
    }

    #[test]
    fn rejects_bad_specs_with_reasons() {
        for (text, needle) in [
            ("nope", "malformed"),
            (r#"{"seed":1}"#, "tenant"),
            (r#"{"tenant":"t"}"#, "seed"),
            (r#"{"tenant":"t","seed":1}"#, "model"),
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"pixie"}}"#,
                "unknown model kind",
            ),
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"netapps","benchmark":"NoSuch"}}"#,
                "unknown benchmark",
            ),
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"synthetic","tasks":0}}"#,
                "tasks",
            ),
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"netapps","benchmark":"IPFwd-L1","instances":99}}"#,
                "instances",
            ),
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"synthetic","tasks":4},"on_infeasible":"panic"}"#,
                "on_infeasible",
            ),
            // Misplaced fields are rejected, not silently ignored — a
            // policy nested inside "config" would otherwise submit with
            // the default policy and no warning.
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"synthetic","tasks":4},
                    "config":{"on_infeasible":"degrade"}}"#,
                "unknown key \"on_infeasible\" in \"config\"",
            ),
            (
                r#"{"tenant":"t","seed":1,"model":{"kind":"synthetic","tasks":4,"pps":1.0}}"#,
                "unknown key \"pps\" in the synthetic model",
            ),
            (
                r#"{"tenant":"t","seed":1,"tennant":"typo","model":{"kind":"synthetic","tasks":4}}"#,
                "unknown key \"tennant\" in the spec",
            ),
        ] {
            let e = CampaignSpec::from_json(text).unwrap_err();
            assert!(e.0.contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn benchmark_names_resolve() {
        for b in ALL_BENCHMARKS {
            assert_eq!(benchmark_by_name(b.name()), Some(b));
        }
        assert_eq!(benchmark_by_name("nope"), None);
    }

    #[test]
    fn tenant_model_delegates_batches_bit_identically() {
        use optassign::sampling::random_assignment;
        use optassign_exec::split_seed;
        use optassign_stats::rng::StdRng;

        let model = ModelSpec::Synthetic {
            tasks: 8,
            base_pps: 2.0e6,
        }
        .build();
        let mut rng = StdRng::seed_from_u64(5);
        let assignments: Vec<_> = (0..16)
            .map(|_| random_assignment(model.tasks(), model.topology(), &mut rng).unwrap())
            .collect();
        let keys: Vec<(u64, u32)> = (0..16).map(|i| (split_seed(9, i as u64), 0)).collect();
        let batched = model.try_evaluate_batch_at(&assignments, &keys);
        for (i, a) in assignments.iter().enumerate() {
            assert_eq!(
                batched[i].clone().unwrap(),
                model.try_evaluate_at(a, keys[i].0, keys[i].1).unwrap()
            );
        }
    }
}
