//! Ablation: performance-predictor-driven sampling (paper §5.4).
//!
//! When measuring thousands of assignments on the target system is too
//! expensive, the paper proposes feeding the statistical analysis with a
//! performance *predictor* instead. This experiment runs the pipeline both
//! ways — the analytic predictor vs the cycle simulator — and reports
//! (a) the predictor's speedup, (b) how its UPB estimate deviates, and
//! (c) how good the predictor-chosen assignment actually is when measured.
//!
//! Run: `cargo run --release -p optassign-bench --bin ablation_predictor [--scale f]`
//!
//! `--workers`, `--metrics` and `--serve` apply to both studies.
//! `--checkpoint` and `--resume` are usage errors: the speedup column
//! times the simulator study, which a stored pool would replay.

use optassign::model::{AnalyticModel, PerformanceModel};
use optassign::study::SampleStudy;
use optassign_bench::{case_study_model, fmt_pps, print_table, BenchArgs, BASE_SEED};
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_netapps::Benchmark;
use optassign_sim::MachineConfig;

fn main() {
    let scale = BenchArgs::from_args_honouring(&["--scale", "--workers", "--metrics", "--serve"]);
    let obs = scale.obs();
    let parallelism = scale.parallelism();
    let n = scale.sample(1500);
    let mut rows = Vec::new();
    for bench in [
        Benchmark::IpFwdL1,
        Benchmark::AhoCorasick,
        Benchmark::Stateful,
    ] {
        eprintln!("[predictor] {}…", bench.name());
        let sim_model = case_study_model(bench);
        let ana_model = AnalyticModel::new(
            MachineConfig::ultrasparc_t2(),
            bench.build_workload(8, BASE_SEED),
        );

        // Same seed => both studies draw identical assignments.
        let t0 = std::time::Instant::now();
        let sim_study =
            SampleStudy::run_with(&sim_model, n, 77, parallelism, &obs, None).expect("fits");
        let sim_time = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let ana_study =
            SampleStudy::run_with(&ana_model, n, 77, parallelism, &obs, None).expect("fits");
        let ana_time = t1.elapsed().as_secs_f64().max(1e-9);

        let cfg = PotConfig::default();
        let sim_pot = PotAnalysis::run(sim_study.performances(), &cfg).expect("tail");
        let ana_pot = PotAnalysis::run(ana_study.performances(), &cfg);

        // The integrated approach: pick the predictor's best assignment,
        // then *measure* it once on the real system (the simulator here).
        let predicted_best = ana_study.best_assignment();
        let predicted_best_measured = sim_model.evaluate(predicted_best);
        let loss_vs_sim_best =
            (1.0 - predicted_best_measured / sim_study.best_performance()) * 100.0;

        rows.push(vec![
            bench.name().to_string(),
            format!("{:.0}x", sim_time / ana_time),
            fmt_pps(sim_pot.upb.point),
            match &ana_pot {
                Ok(a) => fmt_pps(a.upb.point),
                Err(e) => format!("failed: {e}"),
            },
            fmt_pps(sim_study.best_performance()),
            fmt_pps(predicted_best_measured),
            format!("{loss_vs_sim_best:+.2}%"),
        ]);
    }
    println!("Predictor-integration ablation (n = {n} assignments per study)\n");
    print_table(
        &[
            "Benchmark",
            "speedup",
            "UPB (measured)",
            "UPB (predicted)",
            "best (measured)",
            "predictor's pick, measured",
            "pick loss",
        ],
        &rows,
    );
    println!(
        "\nExpected (paper §5.4): the predictor is orders of magnitude faster and its\n\
         best pick measures close to the measured-study best, but the accuracy of\n\
         the integrated approach is bounded by the predictor's bias — visible as\n\
         the UPB deviation between the two columns."
    );
    scale.finish(&obs);
}
