//! Reproducibility across the whole stack: identical seeds give identical
//! studies, independent seeds give independent ones, and the parallel
//! engine gives bit-identical results at every worker count.

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::iterative::{run_iterative, IterativeConfig};
use optassign::model::{SimModel, SyntheticModel};
use optassign::study::SampleStudy;
use optassign::{Parallelism, Topology};
use optassign_evt::bootstrap::bootstrap_max_with;
use optassign_netapps::Benchmark;
use optassign_obs::Obs;
use optassign_sim::{MachineConfig, Simulator};
use optassign_stats::rng::Rng;

/// Worker counts exercised by every parity test: serial, even splits, and
/// a count that divides none of the sample sizes here.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[test]
fn simulator_studies_replay_exactly() {
    let build = || {
        let machine = MachineConfig::ultrasparc_t2();
        let workload = Benchmark::PacketAnalyzer.build_workload(2, 77);
        SimModel::new(machine, workload).with_windows(2_000, 8_000)
    };
    let a = SampleStudy::run(&build(), 40, 5).unwrap();
    let b = SampleStudy::run(&build(), 40, 5).unwrap();
    assert_eq!(a.performances(), b.performances());
    assert_eq!(a.assignments(), b.assignments());
}

#[test]
fn different_workload_seeds_change_measurements_not_structure() {
    let machine = MachineConfig::ultrasparc_t2();
    let w1 = Benchmark::Stateful.build_workload(2, 1);
    let w2 = Benchmark::Stateful.build_workload(2, 2);
    assert_eq!(w1.tasks().len(), w2.tasks().len());
    let m1 = SimModel::new(machine.clone(), w1).with_windows(2_000, 8_000);
    let m2 = SimModel::new(machine, w2).with_windows(2_000, 8_000);
    let s1 = SampleStudy::run(&m1, 20, 3).unwrap();
    let s2 = SampleStudy::run(&m2, 20, 3).unwrap();
    // Same assignments drawn (same sampling seed)…
    assert_eq!(s1.assignments(), s2.assignments());
    // …but the address-stream seeds differ, so measurements differ.
    assert_ne!(s1.performances(), s2.performances());
}

#[test]
fn iterative_algorithm_replays_exactly() {
    let model = SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6);
    let cfg = IterativeConfig {
        n_init: 300,
        n_delta: 100,
        acceptable_loss: 0.08,
        ..IterativeConfig::default()
    };
    let a = run_iterative(&model, &cfg, 21).unwrap();
    let b = run_iterative(&model, &cfg, 21).unwrap();
    assert_eq!(a.samples_used, b.samples_used);
    assert_eq!(a.best_performance, b.best_performance);
    assert_eq!(a.trace.len(), b.trace.len());
    assert_eq!(a.best_assignment.contexts(), b.best_assignment.contexts());
}

#[test]
fn plain_study_is_bit_identical_across_worker_counts() {
    let machine = MachineConfig::ultrasparc_t2();
    let workload = Benchmark::IpFwdL1.build_workload(2, 9);
    let model = SimModel::new(machine.clone(), workload.clone()).with_windows(2_000, 8_000);
    let serial = SampleStudy::run_with(
        &model,
        60,
        31,
        Parallelism::serial(),
        &Obs::disabled(),
        None,
    )
    .unwrap();
    // The engine reference: every performance is what the scalar
    // simulator reads for its assignment.
    for (a, &p) in serial.assignments().iter().zip(serial.performances()) {
        let scalar = Simulator::new(&machine, &workload, a.contexts())
            .unwrap()
            .run(2_000, 8_000)
            .pps();
        assert_eq!(p.to_bits(), scalar.to_bits(), "{:?}", a.contexts());
    }
    for workers in WORKER_COUNTS {
        let par = SampleStudy::run_with(
            &model,
            60,
            31,
            Parallelism::new(workers),
            &Obs::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(
            serial.performances(),
            par.performances(),
            "{workers} workers"
        );
        assert_eq!(serial.assignments(), par.assignments(), "{workers} workers");
    }
}

#[test]
fn resilient_study_is_bit_identical_across_worker_counts() {
    let build = || {
        let model = SyntheticModel::new(Topology::ultrasparc_t2(), 8, 1.5e6);
        // A fresh fault-injected model per run: the stuck fault keeps
        // per-stream state, which reset() would also clear.
        FaultyModel::new(model, FaultPlan::harsh(41))
    };
    let (s_study, s_log) = SampleStudy::run_resilient_with(
        &build(),
        120,
        13,
        3,
        Parallelism::serial(),
        &Obs::disabled(),
        None,
    )
    .unwrap();
    for workers in WORKER_COUNTS {
        let (study, log) = SampleStudy::run_resilient_with(
            &build(),
            120,
            13,
            3,
            Parallelism::new(workers),
            &Obs::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(
            s_study.performances(),
            study.performances(),
            "{workers} workers"
        );
        assert_eq!(
            s_study.assignments(),
            study.assignments(),
            "{workers} workers"
        );
        assert_eq!(s_log.attempts, log.attempts, "{workers} workers");
        assert_eq!(s_log.retries, log.retries, "{workers} workers");
        assert_eq!(s_log.redrawn, log.redrawn, "{workers} workers");
    }
}

#[test]
fn iterative_algorithm_is_bit_identical_across_worker_counts() {
    let run = |workers: usize| {
        let model = FaultyModel::new(
            SyntheticModel::new(Topology::ultrasparc_t2(), 6, 1.0e6),
            FaultPlan::light(77),
        );
        let cfg = IterativeConfig {
            n_init: 300,
            n_delta: 100,
            acceptable_loss: 0.08,
            parallelism: Parallelism::new(workers),
            ..IterativeConfig::default()
        };
        run_iterative(&model, &cfg, 21).unwrap()
    };
    let serial = run(1);
    for workers in WORKER_COUNTS {
        let par = run(workers);
        assert_eq!(serial.samples_used, par.samples_used, "{workers} workers");
        assert_eq!(serial.evaluations, par.evaluations, "{workers} workers");
        assert_eq!(
            serial.best_performance, par.best_performance,
            "{workers} workers"
        );
        assert_eq!(serial.trace, par.trace, "{workers} workers");
        assert_eq!(
            serial.best_assignment.contexts(),
            par.best_assignment.contexts(),
            "{workers} workers"
        );
    }
}

#[test]
fn bootstrap_is_bit_identical_across_worker_counts() {
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(3);
    let sample: Vec<f64> = (0..500).map(|_| rng.gen_range(0.0..100.0)).collect();
    let serial = bootstrap_max_with(&sample, 300, 0.95, 5, Parallelism::serial()).unwrap();
    for workers in WORKER_COUNTS {
        let par = bootstrap_max_with(&sample, 300, 0.95, 5, Parallelism::new(workers)).unwrap();
        assert_eq!(serial.point, par.point, "{workers} workers");
        assert_eq!(serial.ci_low, par.ci_low, "{workers} workers");
        assert_eq!(serial.ci_high, par.ci_high, "{workers} workers");
    }
}
