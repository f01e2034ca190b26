//! Extension: evaluating schedulers against the estimated optimum.
//!
//! The paper's central argument (§2) is that scheduler evaluations are
//! misleading unless compared to the *optimal* performance. This
//! experiment does that comparison for four strategies — naive, Linux-like
//! balanced, best-of-n random sampling, and greedy local search — using
//! the EVT bound as the yardstick on the 24-thread case study.
//!
//! Run: `cargo run --release -p optassign-bench --bin ext_scheduler_eval [--scale f]`

use optassign::model::PerformanceModel;
use optassign::schedulers::{best_of_sample, linux_like, local_search, naive};
use optassign_bench::{case_study_model, fmt_pps, print_table, BenchArgs};
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let budget = scale.sample(600); // evaluations granted to each strategy
    let obs = scale.obs();
    let mut rows = Vec::new();
    for bench in [Benchmark::IpFwdL1, Benchmark::Stateful] {
        let model = case_study_model(bench);
        let pool = scale
            .pool(bench, scale.sample(3000), &obs)
            .expect("case-study workloads fit the machine");
        // Small pools (`--scale 0.1`) may have no bounded POT fit; the
        // strategies still run, with no optimum to measure them against.
        let upb = PotAnalysis::run(pool.performances(), &PotConfig::default())
            .ok()
            .map(|analysis| analysis.upb.point);

        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(19);
        let naive_pps = {
            let a = naive(model.tasks(), model.topology(), &mut rng).expect("fits");
            model.evaluate(&a)
        };
        let linux_pps = model.evaluate(&linux_like(model.tasks(), model.topology()).expect("fits"));
        let (_, best_n_pps) = best_of_sample(&model, budget, &mut rng).expect("fits");
        let (_, search_pps) = local_search(&model, budget, &mut rng).expect("fits");

        let cell = |p: f64| match upb {
            Some(upb) => format!("{} ({:.1}%)", fmt_pps(p), (1.0 - p / upb) * 100.0),
            None => format!("{} (-)", fmt_pps(p)),
        };
        rows.push(vec![
            bench.name().to_string(),
            cell(naive_pps),
            cell(linux_pps),
            cell(best_n_pps),
            cell(search_pps),
            upb.map_or_else(|| format!("tail unresolved at n = {}", pool.len()), fmt_pps),
        ]);
    }
    println!(
        "Scheduler evaluation against the estimated optimum (per-strategy budget {budget} evals)\n"
    );
    print_table(
        &[
            "Benchmark",
            "naive (loss vs UPB)",
            "Linux-like",
            &format!("best-of-{budget}"),
            &format!("local search ({budget})"),
            "estimated optimum",
        ],
        &rows,
    );
    println!(
        "\nWithout the UPB column, 'local search beats naive by X%' says nothing;\n\
         with it, each strategy's remaining headroom is explicit — the paper's\n\
         §2 argument, operationalized."
    );
    scale.finish(&obs);
}
