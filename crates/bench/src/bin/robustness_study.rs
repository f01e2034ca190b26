//! Robustness study: POT estimation under injected measurement faults.
//!
//! Sweeps fault profile (none / light / harsh) × fallback policy
//! (strict / profile / full) over the paper's five-benchmark case study.
//! For each cell the study measures a fault-injected sample through the
//! resilient campaign ([`SampleStudy::run_resilient`]), estimates the UPB
//! through the requested slice of the fallback ladder, and compares
//! against the clean-infrastructure reference estimate:
//!
//! * **UPB rel err** — relative deviation of the faulty-path UPB from the
//!   clean reference (how much contamination bends the estimate);
//! * **method** — the ladder rung that actually produced the estimate
//!   (`profile-mle` on healthy data; lower rungs under contamination);
//! * **ladder falls** — failed estimation attempts before the winning
//!   rung;
//! * **extra meas** — measurement attempts beyond one per sample (the
//!   retry/redraw cost of faulty infrastructure).
//!
//! Run: `cargo run --release -p optassign-bench --bin robustness_study
//! [--scale f] [--checkpoint dir] [--resume]`
//!
//! With `--checkpoint`, each benchmark × fault-profile cell journals its
//! resilient campaign into its own store subdirectory (campaign
//! identities cannot cover the fault plan, so cells must not share
//! stores) and resumes bit-identically after an interruption. The clean
//! reference is the benchmark's case-study pool
//! ([`optassign_bench::BenchArgs::pool`]), shared with the figure binaries.

use optassign::fault::{FaultPlan, FaultyModel};
use optassign::study::SampleStudy;
use optassign_bench::{
    case_study_model, fmt_pps, print_table, report_store, seed_tag, BenchArgs, BASE_SEED,
};
use optassign_evt::pot::PotConfig;
use optassign_evt::resilient::{FallbackPolicy, ResilientConfig};
use optassign_netapps::Benchmark;

const MAX_RETRIES: usize = 3;

fn main() {
    let scale = BenchArgs::from_args();
    let n = scale.sample(1000);
    let par = scale.parallelism();
    let obs = scale.obs();
    let policies = [
        ("strict", FallbackPolicy::Strict),
        ("profile", FallbackPolicy::Profile),
        ("full", FallbackPolicy::Full),
    ];

    println!(
        "Robustness study: UPB estimation under injected measurement faults \
         (n = {n}, retries = {MAX_RETRIES}, {} workers)\n",
        par.workers
    );

    let mut rows = Vec::new();
    for bench in Benchmark::paper_suite() {
        let seed = BASE_SEED ^ seed_tag(bench);
        let clean = scale
            .pool(bench, n, &obs)
            .expect("case-study workloads fit the machine");
        let clean_upb = clean
            .estimate_optimal(&PotConfig::default())
            .map(|a| a.upb.point)
            .ok();

        for (fault_name, plan) in [
            ("none", FaultPlan::none(seed)),
            ("light", FaultPlan::light(seed)),
            ("harsh", FaultPlan::harsh(seed)),
        ] {
            eprintln!("[robustness] {}: {fault_name} faults…", bench.name());
            let faulty = FaultyModel::new(case_study_model(bench), plan);
            let store = scale.store(&format!("robustness-{}-{fault_name}", bench.name()), &obs);
            let campaign = SampleStudy::run_resilient_with(
                &faulty,
                n,
                seed,
                MAX_RETRIES,
                par,
                &obs,
                store.as_ref(),
            );
            if let Some(store) = &store {
                report_store(store);
            }
            let (study, log) = match campaign {
                Ok(ok) => ok,
                Err(e) => {
                    for (policy_name, _) in policies {
                        rows.push(vec![
                            bench.name().to_string(),
                            fault_name.to_string(),
                            policy_name.to_string(),
                            format!("campaign failed: {e}"),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                            "-".into(),
                        ]);
                    }
                    continue;
                }
            };
            for (policy_name, policy) in policies {
                let cfg = ResilientConfig {
                    policy,
                    seed,
                    ..ResilientConfig::default()
                };
                let (upb, rel, method, falls) = match study.estimate_resilient(&cfg) {
                    Ok(report) => (
                        fmt_pps(report.upb.point),
                        clean_upb
                            .map(|c| format!("{:+.3}%", (report.upb.point - c) / c * 100.0))
                            .unwrap_or_else(|| "-".into()),
                        report.method.name().to_string(),
                        report.retries().to_string(),
                    ),
                    Err(e) => (format!("failed: {e}"), "-".into(), "-".into(), "-".into()),
                };
                rows.push(vec![
                    bench.name().to_string(),
                    fault_name.to_string(),
                    policy_name.to_string(),
                    upb,
                    rel,
                    method,
                    falls,
                    log.extra_attempts(n).to_string(),
                ]);
            }
        }
    }

    print_table(
        &[
            "benchmark",
            "faults",
            "policy",
            "UPB",
            "rel err",
            "method",
            "ladder falls",
            "extra meas",
        ],
        &rows,
    );
    println!(
        "\nrel err compares each estimate against the clean-infrastructure \
         profile-MLE reference for the same benchmark and sample size."
    );
    scale.finish(&obs);
}
