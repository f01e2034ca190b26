//! Deep pipelines: applications with several processing threads.
//!
//! The paper's §5 closes with: "As a part of future work, we plan to apply
//! the presented statistical approach to applications with several
//! processing threads and to workloads with a higher number of
//! simultaneously-running tasks." This module implements that workload
//! shape: `R → P₁ → … → P_k → T` pipelines where the per-packet processing
//! is split across `k` stages (header decode, lookup, rewrite, …), each
//! with its own queue — so assignments of up to `8 × (k + 2)` tasks can be
//! studied with the very same machinery.

use crate::ipfwd::ENTRY_BYTES;
use optassign_sim::program::{AccessPattern, ProgramBuilder, WorkloadSpec};

/// Maximum pipeline instances (NIU DMA channel limit, as in [`crate::suite`]).
pub const MAX_INSTANCES: usize = 8;

/// Builds an IPFwd-style workload whose processing is split across
/// `p_stages` threads per instance: tasks per instance = `p_stages + 2`.
///
/// Stage 1 decodes headers and hashes; middle stages perform partial
/// lookups over per-stage tables; the final stage rewrites the packet.
/// Task order per instance is `[R, P₁, …, P_k, T]`.
///
/// # Panics
///
/// Panics when `instances` is outside `1..=MAX_INSTANCES` or
/// `p_stages == 0`.
///
/// # Examples
///
/// ```
/// use optassign_netapps::deep::build_deep_ipfwd;
///
/// // 8 instances x (R + 2 P-stages + T) = 32 tasks, the "higher number of
/// // simultaneously-running tasks" regime of the paper's future work.
/// let w = build_deep_ipfwd(8, 2, 7);
/// assert_eq!(w.tasks().len(), 32);
/// assert!(w.validate().is_ok());
/// ```
pub fn build_deep_ipfwd(instances: usize, p_stages: usize, seed: u64) -> WorkloadSpec {
    assert!(
        (1..=MAX_INSTANCES).contains(&instances),
        "instances must be in 1..={MAX_INSTANCES}"
    );
    assert!(p_stages > 0, "at least one processing stage");

    let mut w = WorkloadSpec::new(seed);
    for inst in 0..instances {
        let tag = format!("deep-ipfwd.{inst}");
        let pktbuf = w.add_region(
            format!("{tag}.pktbuf"),
            16 * 1024,
            AccessPattern::Sequential { stride: 64 },
        );

        // Create the tasks first (ids), then the queues, then the programs.
        let r = w.add_task(format!("{tag}.R"), ProgramBuilder::new().build(), 2_560);
        let mut p_ids = Vec::with_capacity(p_stages);
        let mut p_tables = Vec::with_capacity(p_stages);
        for s in 0..p_stages {
            let table = w.add_region(
                format!("{tag}.lut{s}"),
                (512 * ENTRY_BYTES) as u64,
                AccessPattern::Uniform,
            );
            p_tables.push(table);
            p_ids.push(w.add_task(
                format!("{tag}.P{s}"),
                ProgramBuilder::new().build(),
                6 * 1024,
            ));
        }
        let t = w.add_task(format!("{tag}.T"), ProgramBuilder::new().build(), 2_560);

        // Queues between consecutive stages.
        let mut queues = Vec::with_capacity(p_stages + 1);
        let mut prev = r;
        for &p in &p_ids {
            queues.push(w.add_queue(prev, p, 128));
            prev = p;
        }
        queues.push(w.add_queue(prev, t, 128));

        // Final programs. The total per-packet P budget matches a single
        // ~900-cycle stage, divided across the stages (plus queue hops).
        let per_stage_ints = (720 / p_stages).max(40) as u16;
        w.set_program(
            r,
            ProgramBuilder::new()
                .niu_rx()
                .int(26)
                .store(pktbuf)
                .store(pktbuf)
                .push(queues[0])
                .build(),
        );
        for (s, &p) in p_ids.iter().enumerate() {
            w.set_program(
                p,
                ProgramBuilder::new()
                    .pop(queues[s])
                    .load(pktbuf)
                    .int(per_stage_ints / 2)
                    .load(p_tables[s])
                    .int(per_stage_ints / 2)
                    .push(queues[s + 1])
                    .build(),
            );
        }
        w.set_program(
            t,
            ProgramBuilder::new()
                .pop(queues[p_stages])
                .int(20)
                .transmit()
                .build(),
        );
    }
    debug_assert!(w.validate().is_ok());
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use optassign_sim::program::Op;
    use optassign_sim::{MachineConfig, Simulator};

    #[test]
    fn shapes_scale_with_depth() {
        for p_stages in 1..=4 {
            let w = build_deep_ipfwd(2, p_stages, 1);
            assert_eq!(w.tasks().len(), 2 * (p_stages + 2));
            assert_eq!(w.queues().len(), 2 * (p_stages + 1));
            assert!(w.validate().is_ok(), "depth {p_stages}");
        }
    }

    #[test]
    fn exactly_one_transmit_per_instance() {
        let w = build_deep_ipfwd(3, 3, 2);
        let transmits = w
            .tasks()
            .iter()
            .flat_map(|t| t.program.ops())
            .filter(|op| matches!(op, Op::Transmit))
            .count();
        assert_eq!(transmits, 3);
    }

    #[test]
    fn deep_pipeline_simulates_and_flows() {
        let m = MachineConfig::ultrasparc_t2();
        let w = build_deep_ipfwd(1, 3, 3);
        // 5 tasks spread across cores.
        let assignment: Vec<usize> = vec![0, 8, 16, 24, 32];
        let sim = Simulator::new(&m, &w, &assignment).unwrap();
        let r = sim.run(5_000, 60_000);
        assert!(r.packets_transmitted > 50, "only {}", r.packets_transmitted);
        // Every stage iterated at least as often as packets transmitted
        // (upstream stages run ahead by at most the queue capacities).
        for (i, &iters) in r.per_task_iterations.iter().enumerate() {
            assert!(
                iters + 130 >= r.packets_transmitted,
                "task {i} iterated {iters} < transmits {}",
                r.packets_transmitted
            );
        }
    }

    #[test]
    fn deeper_pipelines_gain_throughput_sublinearly() {
        // Splitting the per-packet work across more stage threads shortens
        // the bottleneck stage, so throughput grows with depth — but the
        // added queue hops keep the gain below the ideal stage ratio.
        let m = MachineConfig::ultrasparc_t2();
        let shallow = build_deep_ipfwd(1, 1, 4);
        let deep = build_deep_ipfwd(1, 4, 4);
        let sim_shallow = Simulator::new(&m, &shallow, &[0, 8, 16]).unwrap();
        let sim_deep = Simulator::new(&m, &deep, &[0, 8, 16, 24, 32, 40]).unwrap();
        let p_shallow = sim_shallow.run(5_000, 60_000).pps();
        let p_deep = sim_deep.run(5_000, 60_000).pps();
        let speedup = p_deep / p_shallow;
        assert!(
            speedup > 1.3,
            "pipelining gained only {speedup}x (shallow {p_shallow}, deep {p_deep})"
        );
        assert!(
            speedup < 4.0,
            "speedup {speedup}x exceeds the ideal stage ratio — queue costs missing?"
        );
    }

    #[test]
    #[should_panic(expected = "at least one processing stage")]
    fn zero_stages_rejected() {
        build_deep_ipfwd(1, 0, 0);
    }
}
