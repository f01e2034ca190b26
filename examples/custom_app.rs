//! Bring your own application: define a custom workload and find a good
//! assignment for it.
//!
//! The statistical method is application- and architecture-independent —
//! this example defines a brand-new two-stage "crypto gateway" pipeline
//! (decrypt-heavy stage feeding a checksum stage), runs it on a smaller
//! 4-core machine, and estimates the optimal assignment quality.
//!
//! Run: `cargo run --release --example custom_app`

use optassign::model::SimModel;
use optassign::schedulers::best_of_sample;
use optassign::study::SampleStudy;
use optassign_evt::pot::PotConfig;
use optassign_sim::program::{AccessPattern, ProgramBuilder, WorkloadSpec};
use optassign_sim::{MachineConfig, Topology};

fn build_crypto_gateway(instances: usize, seed: u64) -> WorkloadSpec {
    let mut w = WorkloadSpec::new(seed);
    for i in 0..instances {
        let session_table = w.add_region(
            format!("gw{i}.sessions"),
            256 * 1024,
            AccessPattern::Uniform,
        );
        let front = w.add_task(
            format!("gw{i}.decrypt"),
            ProgramBuilder::new().build(),
            6_144,
        );
        let back = w.add_task(format!("gw{i}.csum"), ProgramBuilder::new().build(), 3_072);
        let q = w.add_queue(front, back, 64);
        // Front stage: receive, look up the session, run the crypto unit.
        w.set_program(
            front,
            ProgramBuilder::new()
                .niu_rx()
                .load(session_table)
                .int(60)
                .crypto(12)
                .int(40)
                .push(q)
                .build(),
        );
        // Back stage: checksum (integer) and transmit.
        w.set_program(
            back,
            ProgramBuilder::new().pop(q).int(180).transmit().build(),
        );
    }
    w
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A smaller machine: 4 cores x 2 pipes x 4 strands.
    let mut machine = MachineConfig::ultrasparc_t2();
    machine.topology = Topology::new(4, 2, 4);

    let workload = build_crypto_gateway(6, 31);
    workload.validate()?;
    println!(
        "custom workload: {} tasks on a {}-context machine",
        workload.tasks().len(),
        machine.topology.contexts()
    );

    let model = SimModel::new(machine, workload);
    let study = SampleStudy::run(&model, 500, 3)?;
    let analysis = study.estimate_optimal(&PotConfig::default())?;
    println!(
        "best of 500 random assignments: {:.3} MPPS; estimated optimum {:.3} MPPS ({:.2}% headroom)",
        study.best_performance() / 1e6,
        analysis.upb.point / 1e6,
        analysis.improvement_headroom() * 100.0
    );

    // Compare a one-shot best-of-100 strategy.
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(8);
    let (assignment, pps) = best_of_sample(&model, 100, &mut rng)?;
    println!(
        "best-of-100 pick: {:.3} MPPS with contexts {:?}",
        pps / 1e6,
        assignment.contexts()
    );
    println!(
        "\nNo profiling, no architecture model — the method only ever observed\n\
         (assignment, throughput) pairs, exactly as the paper promises."
    );
    Ok(())
}
