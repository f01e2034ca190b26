//! The batch evaluation contract, property-tested: for random models,
//! assignment spaces, and seeds, every batched entry point is
//! **bit-identical** to its scalar counterpart at every batch size —
//! including error slots (injected faults) and non-finite readings.
//!
//! This is the enforcement half of DESIGN.md §10: batching is a
//! throughput knob, never an observable.

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::model::{MeasureError, PerformanceModel, SimModel, SyntheticModel, Unbatched};
use optassign::sampling::sample_assignments;
use optassign::study::SampleStudy;
use optassign::{Assignment, Parallelism, Topology};
use optassign_netapps::Benchmark;
use optassign_obs::Obs;
use optassign_sim::MachineConfig;
use optassign_stats::rng::{Rng, StdRng};

/// The batch sizes every parity property is checked at: degenerate,
/// prime, the simulator bench's size, and far-larger-than-the-input.
const BATCH_SIZES: [usize; 4] = [1, 3, 16, 1000];

/// A wrapper that poisons some readings with NaN, so the parity
/// properties cover non-finite slots too (the scalar `try_evaluate`
/// maps them to `MeasureError::NonFinite`).
struct NanPocked<M>(M);

/// Bit-level canonical form of a measurement outcome, so slots whose
/// error payload is NaN (`NonFinite(NaN) != NonFinite(NaN)` under IEEE
/// equality) still compare exactly.
fn canon(r: &Result<f64, MeasureError>) -> Result<u64, (u8, String, u64)> {
    match r {
        Ok(v) => Ok(v.to_bits()),
        Err(MeasureError::Failed(msg)) => Err((0, msg.clone(), 0)),
        Err(MeasureError::NonFinite(v)) => Err((1, String::new(), v.to_bits())),
    }
}

impl<M: PerformanceModel> PerformanceModel for NanPocked<M> {
    fn tasks(&self) -> usize {
        self.0.tasks()
    }
    fn topology(&self) -> Topology {
        self.0.topology()
    }
    fn evaluate(&self, assignment: &Assignment) -> f64 {
        let sum: usize = assignment.contexts().iter().sum();
        if sum.is_multiple_of(5) {
            f64::NAN
        } else {
            self.0.evaluate(assignment)
        }
    }
}

fn spaces(seed: u64) -> Vec<(usize, Vec<Assignment>)> {
    let topo = Topology::ultrasparc_t2();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..3 {
        let tasks = rng.gen_range(2usize..12);
        let n = rng.gen_range(5usize..40);
        let draw_seed = rng.next_u64();
        let mut draw_rng = StdRng::seed_from_u64(draw_seed);
        let assignments = sample_assignments(n, tasks, topo, &mut draw_rng).unwrap();
        out.push((tasks, assignments));
    }
    out
}

#[test]
fn evaluate_batch_matches_scalar_for_random_spaces() {
    for seed in [1u64, 17, 902] {
        for (tasks, assignments) in spaces(seed) {
            let model = SyntheticModel::new(Topology::ultrasparc_t2(), tasks, 1.0e6);
            let scalar: Vec<u64> = assignments
                .iter()
                .map(|a| model.evaluate(a).to_bits())
                .collect();
            for batch in BATCH_SIZES {
                let batched: Vec<u64> = assignments
                    .chunks(batch)
                    .flat_map(|c| model.evaluate_batch(c))
                    .map(f64::to_bits)
                    .collect();
                assert_eq!(batched, scalar, "seed={seed} tasks={tasks} batch={batch}");
            }
        }
    }
}

#[test]
fn sim_model_batch_matches_scalar_on_the_paper_engine() {
    let machine = MachineConfig::ultrasparc_t2();
    let workload = Benchmark::PacketAnalyzer.build_workload(2, 5);
    let model = SimModel::new(machine, workload).with_windows(2_000, 8_000);
    let mut rng = StdRng::seed_from_u64(11);
    let assignments = sample_assignments(8, model.tasks(), model.topology(), &mut rng).unwrap();
    let scalar: Vec<u64> = assignments
        .iter()
        .map(|a| model.evaluate(a).to_bits())
        .collect();
    for batch in BATCH_SIZES {
        let batched: Vec<u64> = assignments
            .chunks(batch)
            .flat_map(|c| model.evaluate_batch(c))
            .map(f64::to_bits)
            .collect();
        assert_eq!(batched, scalar, "batch={batch}");
    }
}

#[test]
fn try_batch_carries_nan_slots_exactly_like_scalar() {
    for seed in [3u64, 44] {
        for (tasks, assignments) in spaces(seed) {
            let model = NanPocked(SyntheticModel::new(Topology::ultrasparc_t2(), tasks, 1.0e6));
            let scalar: Vec<_> = assignments
                .iter()
                .map(|a| canon(&model.try_evaluate(a)))
                .collect();
            assert!(
                scalar.iter().any(Result::is_err),
                "seed={seed}: the NaN pocking must hit at least one slot"
            );
            let keys: Vec<(u64, u32)> = (0..assignments.len() as u64).map(|i| (i, 0)).collect();
            for batch in BATCH_SIZES {
                let batched: Vec<_> = assignments
                    .chunks(batch)
                    .zip(keys.chunks(batch))
                    .flat_map(|(ac, kc)| model.try_evaluate_batch_at(ac, kc))
                    .map(|r| canon(&r))
                    .collect();
                assert_eq!(batched, scalar, "seed={seed} tasks={tasks} batch={batch}");
            }
        }
    }
}

#[test]
fn keyed_try_batch_matches_scalar_with_injected_faults() {
    // Fault slots (Failed errors), stuck-counter state, and value noise
    // must all land in the same slots with the same bits, at every
    // batch size. Streams repeat across slots so the stuck state is
    // exercised across batch boundaries.
    for seed in [7u64, 123] {
        for (tasks, assignments) in spaces(seed) {
            let keys: Vec<(u64, u32)> = (0..assignments.len() as u64)
                .map(|i| (900 + i % 6, (i / 6) as u32))
                .collect();
            let build = || {
                FaultyModel::new(
                    SyntheticModel::new(Topology::ultrasparc_t2(), tasks, 1.0e6),
                    FaultPlan::harsh(seed),
                )
            };
            let scalar_model = build();
            let scalar: Vec<_> = assignments
                .iter()
                .zip(&keys)
                .map(|(a, &(s, t))| canon(&scalar_model.try_evaluate_at(a, s, t)))
                .collect();
            for batch in BATCH_SIZES {
                let m = build();
                let batched: Vec<_> = assignments
                    .chunks(batch)
                    .zip(keys.chunks(batch))
                    .flat_map(|(ac, kc)| m.try_evaluate_batch_at(ac, kc))
                    .map(|r| canon(&r))
                    .collect();
                assert_eq!(batched, scalar, "seed={seed} tasks={tasks} batch={batch}");
                assert_eq!(m.stats(), scalar_model.stats(), "seed={seed} batch={batch}");
            }
        }
    }
}

#[test]
fn studies_are_bit_identical_at_every_batch_size_and_worker_count() {
    // End to end: the plain and resilient studies, scalar reference
    // (the unbatched model) versus every batch size, at 1 and 4 workers.
    let model = SyntheticModel::new(Topology::ultrasparc_t2(), 7, 1.2e6);
    let scalar = SampleStudy::run_with(
        &Unbatched(model.clone()),
        90,
        19,
        Parallelism::serial(),
        &Obs::disabled(),
        None,
    )
    .unwrap();
    for workers in [1usize, 4] {
        for batch in BATCH_SIZES {
            let par = Parallelism::new(workers).with_batch(batch);
            let study = SampleStudy::run_with(&model, 90, 19, par, &Obs::disabled(), None).unwrap();
            assert_eq!(
                study.performances(),
                scalar.performances(),
                "workers={workers} batch={batch}"
            );
            assert_eq!(study.assignments(), scalar.assignments());
        }
    }

    let build = || {
        FaultyModel::new(
            SyntheticModel::new(Topology::ultrasparc_t2(), 7, 1.2e6),
            FaultPlan::harsh(29),
        )
    };
    let (scalar_study, scalar_log) = SampleStudy::run_resilient_with(
        &Unbatched(build()),
        90,
        23,
        3,
        Parallelism::serial(),
        &Obs::disabled(),
        None,
    )
    .unwrap();
    for workers in [1usize, 4] {
        for batch in BATCH_SIZES {
            let par = Parallelism::new(workers).with_batch(batch);
            let (study, log) =
                SampleStudy::run_resilient_with(&build(), 90, 23, 3, par, &Obs::disabled(), None)
                    .unwrap();
            assert_eq!(
                study.performances(),
                scalar_study.performances(),
                "workers={workers} batch={batch}"
            );
            assert_eq!(study.assignments(), scalar_study.assignments());
            assert_eq!(log, scalar_log, "workers={workers} batch={batch}");
        }
    }
}
