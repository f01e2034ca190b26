//! Integration tests on the benchmark suite's simulated behaviour: the
//! qualitative properties the paper's case study relies on.

use optassign::model::{PerformanceModel, SimModel};
use optassign::schedulers::linux_like;
use optassign::study::SampleStudy;
use optassign::Assignment;
use optassign_netapps::Benchmark;
use optassign_sim::MachineConfig;

fn model(bench: Benchmark, instances: usize, measure: u64) -> SimModel {
    let machine = MachineConfig::ultrasparc_t2();
    let workload = bench.build_workload(instances, 13);
    SimModel::new(machine, workload).with_windows(3_000, measure)
}

/// The memory-bound IPFwd variant is slower than the L1-resident one under
/// the same balanced assignment (paper §4.3: "significantly different
/// memory behavior").
#[test]
fn ipfwd_mem_is_slower_than_ipfwd_l1() {
    let l1 = model(Benchmark::IpFwdL1, 2, 20_000);
    let mem = model(Benchmark::IpFwdMem, 2, 20_000);
    let a = linux_like(6, l1.topology()).unwrap();
    let p_l1 = l1.evaluate(&a);
    let p_mem = mem.evaluate(&a);
    assert!(
        p_l1 > p_mem * 1.15,
        "IPFwd-L1 {p_l1} should clearly beat IPFwd-Mem {p_mem}"
    );
}

/// Assignment matters: across random assignments of the 24-thread
/// workload, the suite shows a large performance spread (the paper reports
/// up to 49% between best and worst of the same workload).
#[test]
fn assignment_spread_is_large() {
    let m = model(Benchmark::IpFwdL1, 8, 15_000);
    let study = SampleStudy::run(&m, 60, 31).unwrap();
    let best = study.best_performance();
    let worst = study
        .performances()
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let spread = (best - worst) / best;
    assert!(
        spread > 0.10,
        "spread {spread} too small for assignment to matter"
    );
}

/// The intadd variant is more sensitive to pipe sharing than the intmul
/// variant — the mechanism behind the paper's Figure 1 contrast.
#[test]
fn intadd_suffers_more_from_pipe_sharing_than_intmul() {
    let loss_under_packing = |bench: Benchmark| {
        let m = model(bench, 2, 25_000);
        // Both instances' P threads (task ids 1 and 4) in one pipe, R/T
        // spread out.
        let packed = Assignment::new(vec![8, 0, 16, 24, 1, 32], m.topology()).unwrap();
        // P threads on separate cores.
        let spread = Assignment::new(vec![8, 0, 16, 24, 40, 32], m.topology()).unwrap();
        1.0 - m.evaluate(&packed) / m.evaluate(&spread)
    };
    let add_loss = loss_under_packing(Benchmark::IpFwdIntAdd);
    let mul_loss = loss_under_packing(Benchmark::IpFwdIntMul);
    assert!(
        add_loss > mul_loss,
        "intadd loss {add_loss} should exceed intmul loss {mul_loss}"
    );
}

/// Co-locating an instance's pipeline threads on one core (shared L1
/// queues) beats scattering them across the chip for the queue-heavy
/// transmit path — the paper's observation that the distribution of
/// interconnected threads matters.
#[test]
fn pipeline_locality_is_visible() {
    let m = model(Benchmark::IpFwdL1, 1, 25_000);
    // R, P, T on one core, different pipes/strands (no issue-slot clash at
    // 3 tasks on 2 pipes x 4 strands).
    let colocated = Assignment::new(vec![0, 4, 1], m.topology()).unwrap();
    // R, P, T on three different cores.
    let scattered = Assignment::new(vec![0, 8, 16], m.topology()).unwrap();
    let near = m.evaluate(&colocated);
    let far = m.evaluate(&scattered);
    assert!(
        near > far,
        "co-located pipeline {near} should beat scattered {far}"
    );
}

/// The simulator is not invariant under the machine's symmetry: both
/// engines seed every strand from a hash of the exact contexts, so moving
/// a placement one core over gives an equivalent assignment (the same
/// canonical class, the same evaluation-cache key) that measures
/// differently. A cache hit therefore returns whichever equivalent
/// placement was measured first (DESIGN.md §8).
#[test]
fn core_rotation_changes_the_measurement() {
    let m = model(Benchmark::IpFwdL1, 2, 8_000);
    let topo = m.topology();
    let a = linux_like(6, topo).unwrap();
    let rotated: Vec<usize> = a
        .contexts()
        .iter()
        .map(|&c| (c + topo.strands_per_core()) % topo.contexts())
        .collect();
    let rotated = Assignment::new(rotated, topo).unwrap();
    assert!(a.is_equivalent(&rotated));
    assert_eq!(a.canonical_hash(), rotated.canonical_hash());
    let (p, q) = (m.evaluate(&a), m.evaluate(&rotated));
    assert!(p != q, "a core rotation measured identically: {p}");
}

/// Every suite benchmark runs end-to-end on the full 24-thread setup and
/// produces plausible throughput (order of magnitude of the paper's MPPS
/// regime).
#[test]
fn all_benchmarks_produce_plausible_throughput() {
    for bench in Benchmark::paper_suite() {
        let m = model(bench, 8, 15_000);
        let a = linux_like(24, m.topology()).unwrap();
        let pps = m.evaluate(&a);
        assert!(
            (2.0e5..6.0e7).contains(&pps),
            "{}: {pps} PPS out of the plausible MPPS regime",
            bench.name()
        );
    }
}
