//! Extension (paper §5, future work): the statistical method on pipelines
//! with several processing threads and more simultaneous tasks.
//!
//! 8 instances of an `R → P₁ → P₂ → T` pipeline = 32 tasks on 64 contexts.
//! The method is unchanged: sample random assignments, estimate the
//! optimum, report the headroom.
//!
//! Run: `cargo run --release -p optassign-bench --bin ext_deep_pipeline [--scale f]`
//!
//! Every flag applies: `--workers` and `--metrics`/`--serve` as in the
//! pool binaries, and `--checkpoint` journals each pipeline depth into
//! its own store scope `deep-p<stages>`.

use optassign::model::SimModel;
use optassign::study::SampleStudy;
use optassign_bench::{fmt_pps, print_table, BenchArgs, BASE_SEED, MEASURE_CYCLES, WARMUP_CYCLES};
use optassign_evt::pot::PotConfig;
use optassign_netapps::deep::build_deep_ipfwd;
use optassign_sim::MachineConfig;

fn main() {
    let scale = BenchArgs::from_args();
    let obs = scale.obs();
    let n = scale.sample(1500);
    let mut rows = Vec::new();
    for p_stages in [1usize, 2, 3] {
        let tasks = 8 * (p_stages + 2);
        eprintln!("[deep] {p_stages} P-stages ({tasks} tasks): {n} samples…");
        let machine = MachineConfig::ultrasparc_t2();
        let workload = build_deep_ipfwd(8, p_stages, BASE_SEED);
        let model = SimModel::new(machine, workload).with_windows(WARMUP_CYCLES, MEASURE_CYCLES);
        let store = scale.store(&format!("deep-p{p_stages}"), &obs);
        let study = SampleStudy::run_with(
            &model,
            n,
            BASE_SEED ^ p_stages as u64,
            scale.parallelism(),
            &obs,
            store.as_ref(),
        )
        .expect("fits the machine");
        let worst = study
            .performances()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let mut row = vec![
            format!("{p_stages}"),
            format!("{tasks}"),
            fmt_pps(worst),
            fmt_pps(study.best_performance()),
        ];
        // Small samples (`--scale 0.01`) may have no bounded POT fit.
        match study.estimate_optimal(&PotConfig::default()) {
            Ok(analysis) => row.extend([
                fmt_pps(analysis.upb.point),
                format!("{:.2}%", analysis.improvement_headroom() * 100.0),
                format!("{:.3}", analysis.fit.gpd.shape()),
            ]),
            Err(_) => row.extend(["tail unresolved", "-", "-"].map(String::from)),
        }
        rows.push(row);
    }
    println!("Deep pipelines: statistical assignment analysis at higher task counts (n = {n})\n");
    print_table(
        &[
            "P stages",
            "tasks",
            "worst sampled",
            "best sampled",
            "UPB",
            "headroom",
            "GPD shape",
        ],
        &rows,
    );
    println!(
        "\nThe method is untouched by the workload shape — exactly the paper's\n\
         architecture/application independence claim, extended to its stated\n\
         future-work regime (multiple processing threads, 32+ tasks)."
    );
    scale.finish(&obs);
}
