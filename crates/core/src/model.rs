//! Performance models: how an assignment's performance is obtained.
//!
//! The statistical method is agnostic to where the numbers come from — the
//! paper measures real hardware, and §5.4 notes that a *performance
//! predictor* can replace execution when measuring thousands of assignments
//! is too expensive. This module provides the common [`PerformanceModel`]
//! trait and three implementations:
//!
//! * [`SimModel`] — the cycle-approximate simulator (this reproduction's
//!   stand-in for the paper's hardware measurements);
//! * [`AnalyticModel`] — a fast closed-form contention predictor (the
//!   "performance predictor" of the paper's §5.4 integration discussion:
//!   cheap, systematically biased);
//! * [`SyntheticModel`] — a closed-form model with a *known* optimum, used
//!   to validate the estimator end-to-end in tests.

use crate::assignment::Assignment;
use optassign_sim::program::Op;
use optassign_sim::{BatchSimulator, MachineConfig, Topology, WorkloadSpec};
use std::sync::{Arc, Mutex, PoisonError};

/// Why a single measurement attempt failed.
///
/// Real measurement infrastructure drops runs: benchmark processes crash,
/// timeouts fire, counters wedge. A failed attempt says nothing about the
/// assignment itself — retrying the same placement may well succeed — so
/// callers are expected to retry or redraw rather than abort (see
/// [`crate::iterative::run_iterative`] and
/// [`crate::study::SampleStudy::run_resilient`]).
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureError {
    /// The measurement run was lost (crash, timeout, dropped connection).
    Failed(String),
    /// The measurement completed but produced a non-finite value.
    NonFinite(f64),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Failed(reason) => write!(f, "measurement failed: {reason}"),
            MeasureError::NonFinite(v) => {
                write!(f, "measurement produced non-finite value {v}")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// Anything that can score a task assignment.
///
/// Implementations must be deterministic: the same assignment always
/// produces the same performance (the paper measures each assignment once;
/// measurement noise is part of the distribution being sampled, but must
/// be reproducible here for testability).
pub trait PerformanceModel {
    /// Number of tasks the model expects in an assignment.
    fn tasks(&self) -> usize;

    /// The machine topology assignments must target.
    fn topology(&self) -> Topology;

    /// Performance of the assignment, in packets per second (higher is
    /// better).
    ///
    /// # Panics
    ///
    /// Implementations may panic when the assignment does not match
    /// [`PerformanceModel::tasks`] / [`PerformanceModel::topology`];
    /// callers are expected to construct assignments through this crate's
    /// validated paths.
    fn evaluate(&self, assignment: &Assignment) -> f64;

    /// Fallible measurement addressed by an explicit `(stream, attempt)`
    /// key, for deterministic parallel measurement campaigns.
    ///
    /// Parallel runners ([`crate::study::SampleStudy::run_resilient`],
    /// [`crate::iterative::run_iterative`]) give every sample slot its
    /// own `stream` (derived via [`optassign_exec::split_seed`]) and
    /// number the attempts within the slot. A model whose stochastic
    /// behaviour (fault injection, noise) must be reproducible keys it
    /// on `(stream, attempt)` instead of a global call counter, so the
    /// outcome of a slot does not depend on how slots interleave across
    /// worker threads — the foundation of the workspace's bit-identical
    /// serial/parallel guarantee.
    ///
    /// The default implementation ignores the key, wraps
    /// [`PerformanceModel::evaluate`] and reports a non-finite result as
    /// [`MeasureError::NonFinite`] instead of letting it corrupt
    /// downstream statistics; that is correct for every deterministic
    /// model (same assignment → same value, regardless of order). Models
    /// whose measurements can be lost (real hardware, the fault-injecting
    /// [`crate::fault::FaultyModel`]) override it with a path that can
    /// return [`MeasureError::Failed`].
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError`] when the measurement is unusable.
    fn try_evaluate_at(
        &self,
        assignment: &Assignment,
        stream: u64,
        attempt: u32,
    ) -> Result<f64, MeasureError> {
        let _ = (stream, attempt);
        let v = self.evaluate(assignment);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(MeasureError::NonFinite(v))
        }
    }
}

/// Simulator-backed model: every evaluation runs the cycle-approximate
/// T2-like machine.
///
/// Each evaluation is one [`BatchSimulator::run_one`], bit-identical to
/// `Simulator::new(..)?.run(..)`. Building a simulator decodes the
/// workload and prefills a 1 MiB L2 image, so the model keeps the ones
/// it built: an evaluation takes an idle simulator from a pool shared by
/// every clone, or builds one when none is idle, and returns it after
/// the run. The pool therefore holds at most one simulator (about 2 MiB)
/// per thread that evaluated at the same time, and is freed with the
/// last clone. A simulator carries nothing from one assignment to the
/// next, so which one serves an evaluation never changes its result.
#[derive(Clone)]
pub struct SimModel {
    machine: MachineConfig,
    workload: WorkloadSpec,
    warmup_cycles: u64,
    measure_cycles: u64,
    idle: Arc<Mutex<Vec<BatchSimulator>>>,
}

/// Leaves the pool out: its simulators are large, and how many sit idle
/// depends on the model's history, not on what it measures.
impl std::fmt::Debug for SimModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimModel")
            .field("machine", &self.machine)
            .field("workload", &self.workload)
            .field("warmup_cycles", &self.warmup_cycles)
            .field("measure_cycles", &self.measure_cycles)
            .finish_non_exhaustive()
    }
}

impl SimModel {
    /// Creates a model with the default measurement windows (20k warm-up,
    /// 80k measured cycles — enough for a stable PPS reading of the paper's
    /// workloads).
    pub fn new(machine: MachineConfig, workload: WorkloadSpec) -> Self {
        SimModel {
            machine,
            workload,
            warmup_cycles: 20_000,
            measure_cycles: 80_000,
            idle: Arc::default(),
        }
    }

    /// Overrides the warm-up and measurement windows (cycles). Longer
    /// windows reduce measurement noise at proportional cost.
    pub fn with_windows(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_cycles = warmup;
        self.measure_cycles = measure.max(1);
        self
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The workload being simulated.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }

    /// The warm-up and measurement windows (cycles) every evaluation runs.
    pub fn windows(&self) -> (u64, u64) {
        (self.warmup_cycles, self.measure_cycles)
    }
}

impl PerformanceModel for SimModel {
    fn tasks(&self) -> usize {
        self.workload.tasks().len()
    }

    fn topology(&self) -> Topology {
        self.machine.topology
    }

    fn evaluate(&self, assignment: &Assignment) -> f64 {
        // Only a pop or a push runs under the lock, and either leaves the
        // pool valid, so a poisoned lock still guards a sound pool. The
        // pop is its own statement: the lock must not be held while a
        // missing simulator is built.
        let idle = self
            .idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let report = match idle {
            Some(sim) => Ok(sim),
            None => BatchSimulator::new(&self.machine, &self.workload),
        }
        .and_then(|mut sim| {
            let report = sim.run_one(
                assignment.contexts(),
                self.warmup_cycles,
                self.measure_cycles,
            );
            self.idle
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(sim);
            report
        });
        match report {
            Ok(report) => report.pps(),
            // Assignment validity is enforced at construction; reaching
            // this means the assignment belongs to a different model.
            Err(e) => panic!("assignment incompatible with this model: {e}"),
        }
    }
}

/// A fast analytic contention predictor over the same machine description.
///
/// Estimates each task's cycles-per-packet from its program's operation
/// mix, then applies multiplicative contention factors per sharing level:
/// issue-slot demand per pipe, LSU demand per core, L1-footprint pressure
/// per core, and queue-locality penalties. Instances are coupled through
/// their queues (pipeline throughput = slowest stage).
///
/// This is intentionally a *model*: ~10³–10⁴× faster than simulation with
/// a few-percent systematic error, playing the role of the performance
/// predictors discussed in the paper (§2, §5.4).
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    machine: MachineConfig,
    workload: WorkloadSpec,
    /// Per task: (issue_ops, base_cycles, load_ops, footprint_bytes).
    task_stats: Vec<TaskStats>,
    /// Instances as task-id groups (connected components over queues).
    instances: Vec<Vec<usize>>,
    /// Queue endpoints: (producer, consumer).
    queue_pairs: Vec<(usize, usize)>,
}

#[derive(Debug, Clone, Copy)]
struct TaskStats {
    issue_ops: f64,
    base_cycles: f64,
    load_ops: f64,
    footprint: f64,
    queue_ops: f64,
}

impl AnalyticModel {
    /// Builds the predictor from the same inputs as [`SimModel`].
    pub fn new(machine: MachineConfig, workload: WorkloadSpec) -> Self {
        let mut task_stats = Vec::with_capacity(workload.tasks().len());
        for task in workload.tasks() {
            let mut s = TaskStats {
                issue_ops: 0.0,
                base_cycles: 0.0,
                load_ops: 0.0,
                footprint: 0.0,
                queue_ops: 0.0,
            };
            let mut regions_touched: Vec<usize> = Vec::new();
            for op in task.program.ops() {
                match *op {
                    Op::Int(n) => {
                        s.issue_ops += n as f64;
                        s.base_cycles += n as f64;
                    }
                    Op::Mul(n) => {
                        s.issue_ops += n as f64;
                        s.base_cycles += n as f64 * machine.lat_mul as f64;
                    }
                    Op::Fp(n) => {
                        s.issue_ops += n as f64;
                        s.base_cycles += n as f64 * machine.lat_fp as f64;
                    }
                    Op::Crypto(n) => {
                        s.issue_ops += n as f64;
                        s.base_cycles += n as f64 * machine.lat_crypto as f64;
                    }
                    Op::Load(r) => {
                        s.issue_ops += 1.0;
                        s.load_ops += 1.0;
                        let bytes = workload.regions()[r.0].bytes as f64;
                        // Optimistic baseline latency by footprint tier.
                        s.base_cycles += if bytes <= machine.l1d_bytes as f64 {
                            machine.lat_l1 as f64
                        } else if bytes <= machine.l2_bytes as f64 {
                            machine.lat_l2 as f64 * 0.6 + machine.lat_l1 as f64 * 0.4
                        } else {
                            (machine.lat_l2 + machine.lat_mem) as f64 * 0.9
                        };
                        if !regions_touched.contains(&r.0) {
                            regions_touched.push(r.0);
                            s.footprint += bytes.min(machine.l1d_bytes as f64 * 4.0);
                        }
                    }
                    Op::Store(r) => {
                        s.issue_ops += 1.0;
                        s.load_ops += 1.0;
                        s.base_cycles += 1.0;
                        if !regions_touched.contains(&r.0) {
                            regions_touched.push(r.0);
                            s.footprint += (workload.regions()[r.0].bytes as f64)
                                .min(machine.l1d_bytes as f64 * 4.0);
                        }
                    }
                    Op::QueuePush(_) | Op::QueuePop(_) => {
                        s.issue_ops += 1.0;
                        s.queue_ops += 1.0;
                    }
                    Op::NiuRx => {
                        s.issue_ops += 1.0;
                        s.base_cycles += machine.lat_niu_rx as f64;
                    }
                    Op::Transmit => {
                        s.issue_ops += 1.0;
                        s.base_cycles += machine.lat_niu_tx as f64;
                    }
                }
            }
            task_stats.push(s);
        }

        // Connected components over queues = pipeline instances.
        let n = workload.tasks().len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut queue_pairs = Vec::new();
        for q in workload.queues() {
            let (a, b) = (q.producer.0, q.consumer.0);
            queue_pairs.push((a, b));
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for t in 0..n {
            let root = find(&mut parent, t);
            groups.entry(root).or_default().push(t);
        }
        let mut instances: Vec<Vec<usize>> = groups.into_values().collect();
        instances.sort();

        AnalyticModel {
            machine,
            workload,
            task_stats,
            instances,
            queue_pairs,
        }
    }

    /// The workload the predictor was built from.
    pub fn workload(&self) -> &WorkloadSpec {
        &self.workload
    }
}

impl PerformanceModel for AnalyticModel {
    fn tasks(&self) -> usize {
        self.workload.tasks().len()
    }

    fn topology(&self) -> Topology {
        self.machine.topology
    }

    fn evaluate(&self, assignment: &Assignment) -> f64 {
        let topo = self.machine.topology;
        let ctx = assignment.contexts();
        let n = ctx.len();

        // Per-pipe issue demand and per-core LSU demand / L1 footprint.
        let mut pipe_demand = vec![0.0f64; topo.pipes()];
        let mut lsu_demand = vec![0.0f64; topo.cores];
        let mut core_footprint = vec![0.0f64; topo.cores];
        for t in 0..n {
            let s = &self.task_stats[t];
            let rate = 1.0 / s.base_cycles.max(1.0);
            pipe_demand[topo.pipe_of(ctx[t])] += s.issue_ops * rate;
            lsu_demand[topo.core_of(ctx[t])] += s.load_ops * rate;
            core_footprint[topo.core_of(ctx[t])] += s.footprint;
        }

        // Queue penalties per task.
        let mut queue_cycles = vec![0.0f64; n];
        for &(p, c) in &self.queue_pairs {
            let same = topo.core_of(ctx[p]) == topo.core_of(ctx[c]);
            let lat = if same {
                self.machine.queue_same_core_lat
            } else {
                self.machine.queue_cross_core_lat
            } as f64;
            queue_cycles[p] += lat;
            queue_cycles[c] += lat;
        }

        // Effective cycles per packet per task.
        let mut cycles = vec![0.0f64; n];
        for t in 0..n {
            let s = &self.task_stats[t];
            let pipe_factor = pipe_demand[topo.pipe_of(ctx[t])].max(1.0);
            let lsu_factor = lsu_demand[topo.core_of(ctx[t])].max(1.0);
            // L1 pressure: inflate load latency when the core's combined
            // footprint exceeds the L1.
            let over = (core_footprint[topo.core_of(ctx[t])] / self.machine.l1d_bytes as f64 - 1.0)
                .max(0.0);
            let l1_penalty = s.load_ops * over.min(4.0) * 0.25 * self.machine.lat_l2 as f64;
            cycles[t] = s.base_cycles * pipe_factor.max(lsu_factor) + l1_penalty + queue_cycles[t];
        }

        // Pipeline coupling: instance throughput = slowest stage.
        let mut pps = 0.0;
        for instance in &self.instances {
            let bottleneck = instance
                .iter()
                .map(|&t| cycles[t])
                .fold(0.0f64, f64::max)
                .max(1.0);
            pps += self.machine.clock_hz / bottleneck;
        }
        pps
    }
}

/// A closed-form model with a known optimum, for estimator validation.
///
/// Performance starts from `base_pps` and loses a multiplicative factor for
/// every pair of tasks sharing a pipe (`pipe_loss`) or sharing only a core
/// (`core_loss`). A small deterministic per-placement jitter (a hash of the
/// concrete context vector, always reducing performance by up to
/// `jitter`) smooths the otherwise discrete distribution so its upper tail
/// is GPD-amenable, like real measurements. The supremum over all
/// placements is `base_pps`, approached by zero-sharing placements with
/// near-zero jitter.
#[derive(Debug, Clone)]
pub struct SyntheticModel {
    topology: Topology,
    tasks: usize,
    /// Throughput with zero sharing and zero jitter.
    pub base_pps: f64,
    /// Fractional loss per same-pipe pair.
    pub pipe_loss: f64,
    /// Fractional loss per same-core (different pipe) pair.
    pub core_loss: f64,
    /// Maximum fractional jitter (deterministic, placement-keyed).
    pub jitter: f64,
}

impl SyntheticModel {
    /// Creates a synthetic model.
    pub fn new(topology: Topology, tasks: usize, base_pps: f64) -> Self {
        SyntheticModel {
            topology,
            tasks,
            base_pps,
            pipe_loss: 0.06,
            core_loss: 0.02,
            // Matches `core_loss`, so adjacent sharing levels meet and the
            // upper tail of the performance distribution is continuous —
            // a gap between discrete loss levels would make the tail
            // non-GPD-like, which no real measured system exhibits.
            jitter: 0.02,
        }
    }

    /// The exact optimal (supremum) performance: no two tasks share a core
    /// and the jitter is zero, which zero-sharing placements approach.
    /// Meaningful whenever `tasks <= cores`.
    ///
    /// # Panics
    ///
    /// Panics when `tasks > cores` (the zero-sharing optimum is then not
    /// achievable and this bound would be wrong).
    pub fn true_optimum(&self) -> f64 {
        assert!(
            self.tasks <= self.topology.cores,
            "zero-sharing optimum requires tasks <= cores"
        );
        self.base_pps
    }
}

impl PerformanceModel for SyntheticModel {
    fn tasks(&self) -> usize {
        self.tasks
    }

    fn topology(&self) -> Topology {
        self.topology
    }

    fn evaluate(&self, assignment: &Assignment) -> f64 {
        let topo = self.topology;
        let ctx = assignment.contexts();
        let mut factor = 1.0;
        for i in 0..ctx.len() {
            for j in i + 1..ctx.len() {
                if topo.pipe_of(ctx[i]) == topo.pipe_of(ctx[j]) {
                    factor *= 1.0 - self.pipe_loss;
                } else if topo.core_of(ctx[i]) == topo.core_of(ctx[j]) {
                    factor *= 1.0 - self.core_loss;
                }
            }
        }
        // Deterministic jitter in [0, jitter) keyed by the *labeled*
        // placement (FNV-1a over the context vector). Keying on the
        // concrete placement rather than the equivalence class keeps the
        // performance distribution effectively continuous — the property
        // real measurements have and the GPD tail fit needs. Symmetric
        // placements therefore agree only up to `jitter`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &c in ctx {
            h ^= c as u64 + 1;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        self.base_pps * factor * (1.0 - self.jitter * u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::random_assignment;
    use optassign_netapps::Benchmark;

    #[test]
    fn sim_model_is_deterministic() {
        let machine = MachineConfig::ultrasparc_t2();
        let w = Benchmark::IpFwdL1.build_workload(1, 3);
        let model = SimModel::new(machine, w).with_windows(2_000, 10_000);
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(1);
        let a = random_assignment(3, model.topology(), &mut rng).unwrap();
        assert_eq!(model.evaluate(&a), model.evaluate(&a));
        assert!(model.evaluate(&a) > 0.0);
    }

    #[test]
    fn sim_model_matches_the_scalar_simulator_on_pooled_simulators() {
        use optassign_sim::Simulator;
        let machine = MachineConfig::ultrasparc_t2();
        let w = Benchmark::IpFwdMem.build_workload(2, 3);
        let model = SimModel::new(machine.clone(), w.clone()).with_windows(2_000, 10_000);
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(5);
        let xs: Vec<Assignment> = (0..6)
            .map(|_| random_assignment(6, model.topology(), &mut rng).unwrap())
            .collect();
        let scalar: Vec<u64> = xs
            .iter()
            .map(|a| {
                let sim = Simulator::new(&machine, &w, a.contexts()).unwrap();
                sim.run(2_000, 10_000).pps().to_bits()
            })
            .collect();
        // One thread: every evaluation after the first reuses the
        // simulator the previous one returned.
        let serial: Vec<u64> = xs.iter().map(|a| model.evaluate(a).to_bits()).collect();
        assert_eq!(serial, scalar);
        assert_eq!(model.idle.lock().unwrap().len(), 1);
        // Two threads on clones share the pool, which then holds at most
        // one simulator per thread.
        let clone = model.clone();
        assert_eq!(clone.idle.lock().unwrap().len(), 1);
        let (left, right) = std::thread::scope(|scope| {
            let left = scope.spawn(|| xs.iter().map(|a| model.evaluate(a).to_bits()).collect());
            let right = scope.spawn(|| xs.iter().map(|a| clone.evaluate(a).to_bits()).collect());
            (left.join().unwrap(), right.join().unwrap())
        });
        assert_eq!((left, right), (scalar.clone(), scalar));
        assert!(model.idle.lock().unwrap().len() <= 2);
        assert!(!format!("{model:?}").contains("BatchSimulator"));
    }

    #[test]
    fn default_try_evaluate_at_rejects_non_finite_values() {
        /// Reads whatever value it was built with.
        struct Constant(f64);
        impl PerformanceModel for Constant {
            fn tasks(&self) -> usize {
                1
            }
            fn topology(&self) -> Topology {
                Topology::ultrasparc_t2()
            }
            fn evaluate(&self, _: &Assignment) -> f64 {
                self.0
            }
        }
        let a = Assignment::new(vec![0], Topology::ultrasparc_t2()).unwrap();
        assert_eq!(Constant(2.5).try_evaluate_at(&a, 7, 1), Ok(2.5));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match Constant(v).try_evaluate_at(&a, 7, 1) {
                Err(MeasureError::NonFinite(x)) => assert_eq!(x.to_bits(), v.to_bits()),
                other => panic!("{v}: expected NonFinite, got {other:?}"),
            }
        }
    }

    #[test]
    fn analytic_model_orders_obvious_assignments() {
        // Packing an int-heavy 2-instance workload into one pipe must
        // predict worse than spreading it.
        let machine = MachineConfig::ultrasparc_t2();
        let w = Benchmark::IpFwdIntAdd.build_workload(2, 3);
        let model = AnalyticModel::new(machine, w);
        let topo = model.topology();
        let packed = Assignment::new(vec![0, 1, 2, 3, 4, 5], topo).unwrap();
        let spread = Assignment::new(vec![0, 8, 16, 24, 32, 40], topo).unwrap();
        assert!(
            model.evaluate(&spread) > model.evaluate(&packed),
            "spread {} <= packed {}",
            model.evaluate(&spread),
            model.evaluate(&packed)
        );
    }

    #[test]
    fn analytic_tracks_simulation_direction() {
        // The predictor need not match the simulator's values, but should
        // rank a handful of random assignments mostly the same way
        // (positive rank correlation).
        let machine = MachineConfig::ultrasparc_t2();
        let w = Benchmark::IpFwdL1.build_workload(4, 5);
        let sim = SimModel::new(machine.clone(), w.clone()).with_windows(5_000, 30_000);
        let ana = AnalyticModel::new(machine, w);
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(9);
        let assignments: Vec<Assignment> = (0..12)
            .map(|_| random_assignment(12, sim.topology(), &mut rng).unwrap())
            .collect();
        let sim_scores: Vec<f64> = assignments.iter().map(|a| sim.evaluate(a)).collect();
        let ana_scores: Vec<f64> = assignments.iter().map(|a| ana.evaluate(a)).collect();
        // Count concordant pairs.
        let mut concordant = 0;
        let mut total = 0;
        for i in 0..assignments.len() {
            for j in i + 1..assignments.len() {
                total += 1;
                if (sim_scores[i] - sim_scores[j]) * (ana_scores[i] - ana_scores[j]) > 0.0 {
                    concordant += 1;
                }
            }
        }
        let tau = concordant as f64 / total as f64;
        assert!(tau > 0.55, "concordance = {tau}");
    }

    #[test]
    fn synthetic_model_optimum_and_penalties() {
        let topo = Topology::ultrasparc_t2();
        let m = SyntheticModel::new(topo, 4, 1_000_000.0);
        // Fully spread: within jitter of the supremum.
        let spread = Assignment::new(vec![0, 8, 16, 24], topo).unwrap();
        let v = m.evaluate(&spread);
        assert!(v <= m.true_optimum());
        assert!(v >= m.true_optimum() * (1.0 - m.jitter));
        // Same pipe is worse than same core, which is worse than spread.
        let same_core = Assignment::new(vec![0, 4, 16, 24], topo).unwrap();
        let same_pipe = Assignment::new(vec![0, 1, 16, 24], topo).unwrap();
        assert!(m.evaluate(&same_core) < m.evaluate(&spread));
        assert!(m.evaluate(&same_pipe) < m.evaluate(&same_core));
    }

    #[test]
    fn synthetic_model_is_symmetric_up_to_jitter() {
        // Equivalent assignments score identically up to the smoothing
        // jitter (which is keyed on the labeled placement by design).
        let topo = Topology::ultrasparc_t2();
        let m = SyntheticModel::new(topo, 3, 500.0);
        let a = Assignment::new(vec![0, 1, 8], topo).unwrap();
        let b = Assignment::new(vec![40, 41, 16], topo).unwrap();
        assert!(a.is_equivalent(&b));
        let (pa, pb) = (m.evaluate(&a), m.evaluate(&b));
        assert!((pa - pb).abs() <= m.jitter * m.base_pps);
    }

    #[test]
    #[should_panic(expected = "tasks <= cores")]
    fn synthetic_optimum_guards_density() {
        SyntheticModel::new(Topology::ultrasparc_t2(), 9, 1.0).true_optimum();
    }
}
