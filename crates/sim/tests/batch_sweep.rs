//! Differential sweep: the batched engine against the scalar one.
//!
//! [`BatchSimulator::run_one`] must return, field for field, the report of
//! `Simulator::new(..).run(..)` for any workload, assignment and windows.
//! Each seeded case below draws a random workload (every op kind, every
//! access pattern, small queues that make pushes and pops retry), a
//! topology, a shuffled or packed assignment and a pair of windows, and
//! compares the two engines by `==` on the whole [`SimReport`]. Every case
//! runs on a `BatchSimulator` that has already evaluated another
//! assignment, so lane state left behind by an earlier run (the L2 image
//! above all) must be restored exactly.

use optassign_sim::machine::MachineConfig;
use optassign_sim::program::{AccessPattern, ProgramBuilder, RegionId, WorkloadSpec};
use optassign_sim::rng::XorShift64;
use optassign_sim::{BatchSimulator, SimReport, Simulator, Topology};

const CASES: usize = 600;

/// The machines of the sweep: the T2 itself, a small 2×2×2 chip, one pipe
/// of four strands (every task shares one issue slot) and four single-strand
/// cores (every pipe has one strand).
fn topologies() -> [Topology; 4] {
    [
        Topology::ultrasparc_t2(),
        Topology::new(2, 2, 2),
        Topology::new(1, 1, 4),
        Topology::new(4, 1, 1),
    ]
}

/// A region size from tiny (a few lines) to far beyond the 4 MiB L2.
fn region_bytes(rng: &mut XorShift64) -> u64 {
    match rng.next_below(4) {
        0 => 8 + rng.next_below(512),
        1 => 1024 + rng.next_below(16 * 1024),
        2 => 64 * 1024 + rng.next_below(2 << 20),
        _ => (8 << 20) + rng.next_below(56 << 20),
    }
}

fn random_pattern(rng: &mut XorShift64, bytes: u64) -> AccessPattern {
    match rng.next_below(3) {
        0 => AccessPattern::Uniform,
        1 => {
            // Strides below, at and above the region size: the last two
            // take the modulo path of the cursor update.
            let stride = match rng.next_below(4) {
                0 => 8 * rng.next_below(9),
                1 => 64 * (1 + rng.next_below(64)),
                2 => bytes,
                _ => bytes + 1 + rng.next_below(4 * bytes),
            };
            AccessPattern::Sequential {
                stride: stride.min(u32::MAX as u64) as u32,
            }
        }
        _ => AccessPattern::Hot {
            hot_bytes: rng.next_below(2 * bytes),
            hot_prob: match rng.next_below(4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.next_below(1 << 20) as f64 / (1 << 20) as f64,
            },
        },
    }
}

/// Appends one random op that is not a queue op.
fn random_op(rng: &mut XorShift64, b: ProgramBuilder, regions: &[RegionId]) -> ProgramBuilder {
    let region = regions[rng.next_below(regions.len() as u64) as usize];
    match rng.next_below(8) {
        0 => b.int(1 + rng.next_below(16) as u16),
        1 => b.mul(1 + rng.next_below(4) as u16),
        2 => b.fp(1 + rng.next_below(4) as u16),
        3 => b.crypto(1 + rng.next_below(3) as u16),
        4 => b.load(region),
        5 => b.store(region),
        6 => b.niu_rx(),
        _ => b.transmit(),
    }
}

/// A random workload of `n_tasks` tasks. Neighbouring tasks may be joined
/// by a queue of capacity 1–4, so a fast producer or consumer keeps
/// retrying its push or pop.
fn random_workload(rng: &mut XorShift64, n_tasks: usize) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(rng.next_u64());
    let regions: Vec<RegionId> = (0..1 + rng.next_below(3))
        .map(|i| {
            let bytes = region_bytes(rng);
            let pattern = random_pattern(rng, bytes);
            w.add_region(format!("r{i}"), bytes, pattern)
        })
        .collect();
    let tasks: Vec<_> = (0..n_tasks)
        .map(|i| {
            let code_bytes = 512 * (1 + rng.next_below(24));
            w.add_task(format!("t{i}"), ProgramBuilder::new().build(), code_bytes)
        })
        .collect();
    let links: Vec<Option<_>> = (1..n_tasks)
        .map(|i| {
            (rng.next_below(2) == 0)
                .then(|| w.add_queue(tasks[i - 1], tasks[i], 1 + rng.next_below(4) as usize))
        })
        .collect();
    for (i, &task) in tasks.iter().enumerate() {
        let mut b = ProgramBuilder::new();
        if let Some(Some(q)) = i.checked_sub(1).map(|j| links[j]) {
            b = b.pop(q);
        }
        for _ in 0..1 + rng.next_below(6) {
            b = random_op(rng, b, &regions);
        }
        if let Some(&Some(q)) = links.get(i) {
            b = b.push(q);
        }
        w.set_program(task, b.build());
    }
    w
}

/// `n` distinct contexts: a random draw, or the first `n` in order (which
/// packs the tasks onto as few pipes and cores as the topology allows).
fn random_assignment(rng: &mut XorShift64, contexts: usize, n: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..contexts).collect();
    if rng.next_below(3) != 0 {
        for i in (1..contexts).rev() {
            all.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
    }
    all.truncate(n);
    all
}

/// Warm-up and measurement windows: no warm-up, one cycle each, tiny
/// windows around the boundary, an empty measurement, and random sizes.
fn random_windows(rng: &mut XorShift64) -> (u64, u64) {
    match rng.next_below(6) {
        0 => (0, 1 + rng.next_below(4_000)),
        1 => (1, 1),
        2 => (rng.next_below(8), 1 + rng.next_below(8)),
        3 => (1 + rng.next_below(60), 0),
        _ => (rng.next_below(3_000), 1 + rng.next_below(5_000)),
    }
}

#[test]
fn batch_engine_matches_scalar_over_a_seeded_sweep() {
    let mut rng = XorShift64::new(0xBA7C_5EE9);
    for case in 0..CASES {
        let mut m = MachineConfig::ultrasparc_t2();
        m.topology = topologies()[rng.next_below(4) as usize];
        let contexts = m.topology.contexts();
        let n_tasks = 1 + rng.next_below(contexts.min(8) as u64) as usize;
        let w = random_workload(&mut rng, n_tasks);
        let earlier = random_assignment(&mut rng, contexts, n_tasks);
        let assignment = random_assignment(&mut rng, contexts, n_tasks);
        let (earlier_warm, earlier_measure) = random_windows(&mut rng);
        let (warm, measure) = random_windows(&mut rng);

        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        batch
            .run_one(&earlier, earlier_warm, earlier_measure)
            .unwrap();
        let fast = batch.run_one(&assignment, warm, measure).unwrap();
        let scalar = Simulator::new(&m, &w, &assignment)
            .unwrap()
            .run(warm, measure);
        assert_eq!(
            fast, scalar,
            "case {case}: topology {:?}, assignment {assignment:?} after {earlier:?}, \
             windows ({warm}, {measure}), workload {w:?}",
            m.topology
        );
    }
}

#[test]
fn boundary_reset_is_skipped_when_the_scalar_loop_never_enters_the_window() {
    // Three integer cycles, then a load that misses the L1 and the L2 and
    // blocks the only strand past the end of the run. The scalar loop jumps
    // from the warm-up straight to the end, never visits a measured cycle,
    // and so never resets its counters: the warm-up iteration is reported.
    let m = MachineConfig::ultrasparc_t2();
    let mut w = WorkloadSpec::new(1);
    let r = w.add_region("huge", 64 << 20, AccessPattern::Uniform);
    w.add_task("t", ProgramBuilder::new().int(3).load(r).build(), 1_024);
    let scalar: SimReport = Simulator::new(&m, &w, &[0]).unwrap().run(10, 50);
    assert_eq!(scalar.per_task_iterations, [1]);
    let mut batch = BatchSimulator::new(&m, &w).unwrap();
    assert_eq!(batch.run_one(&[0], 10, 50).unwrap(), scalar);
}
