//! Micro-benchmarks of the simulator: the cost of one assignment
//! evaluation — the unit of the paper's "experimental time" discussion
//! (§5.4: 1000/2000/5000 measurements took 25/50/120 minutes on the real
//! testbed) — on the scalar per-cycle `Simulator` and through
//! `SimModel::evaluate`, which runs the event-driven `BatchSimulator` on
//! the simulators the model keeps.
//!
//! `--json <path>` additionally writes the machine-readable report the
//! perf gate (`bench_gate`) consumes; seeds are pinned so the measured
//! work is identical run to run. Set `OPTASSIGN_BENCH_WINDOW_MS` to
//! shrink the measurement window for smoke runs.

use optassign::model::{AnalyticModel, PerformanceModel, SimModel};
use optassign::sampling::random_assignment;
use optassign::Assignment;
use optassign_bench::microbench::{bench, bench_report_json, group, BenchEntry};
use optassign_netapps::Benchmark;
use optassign_sim::{MachineConfig, Simulator};

/// Pinned assignments per benchmark; both paths evaluate all of them.
const ASSIGNMENTS: usize = 16;

fn json_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(args.next().expect("--json needs a path"));
        }
    }
    None
}

fn main() {
    let mut entries = Vec::new();

    group("simulate_assignment");
    for bm in [Benchmark::IpFwdL1, Benchmark::IpFwdMem, Benchmark::Stateful] {
        let machine = MachineConfig::ultrasparc_t2();
        let workload = bm.build_workload(8, 1);
        let model = SimModel::new(machine.clone(), workload.clone());
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(3);
        let assignments: Vec<Assignment> = (0..ASSIGNMENTS)
            .map(|_| random_assignment(24, model.topology(), &mut rng).unwrap())
            .collect();
        // Both paths evaluate the same pinned assignments at the model's
        // default windows (20k warm-up, 80k measured cycles). Identical
        // work, identical results — only the engine differs.
        let (warmup, measure) = model.windows();
        let scalar_ns = bench(&format!("simulate/{}", bm.name()), || {
            assignments
                .iter()
                .map(|a| {
                    let sim = Simulator::new(&machine, &workload, a.contexts()).unwrap();
                    sim.run(warmup, measure).pps()
                })
                .sum::<f64>()
        }) / ASSIGNMENTS as f64;
        let model_ns = bench(&format!("simulate_model/{}", bm.name()), || {
            assignments.iter().map(|a| model.evaluate(a)).sum::<f64>()
        }) / ASSIGNMENTS as f64;
        println!("  └ model speedup: {:.2}x", scalar_ns / model_ns);
        entries.push(BenchEntry {
            name: format!("simulate/{}", bm.name()),
            baseline_ns: scalar_ns,
            candidate_ns: model_ns,
        });
    }

    group("predict_assignment");
    // The analytic predictor should be orders of magnitude cheaper than
    // simulation — the trade-off §5.4 discusses.
    let machine = MachineConfig::ultrasparc_t2();
    let workload = Benchmark::IpFwdL1.build_workload(8, 1);
    let model = AnalyticModel::new(machine, workload);
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(4);
    let a = random_assignment(24, model.topology(), &mut rng).unwrap();
    bench("predict/IPFwd-L1", || model.evaluate(&a));

    if let Some(path) = json_path() {
        let report = bench_report_json("simulator", &entries);
        std::fs::write(&path, &report).expect("write bench report");
        println!("\nwrote {path}");
    }
}
