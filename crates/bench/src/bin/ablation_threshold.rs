//! Ablation: sensitivity of the UPB estimate to the threshold choice.
//!
//! The paper selects the POT threshold graphically from the mean-excess
//! plot, capped at 5% exceedances. This experiment sweeps exceedance
//! fractions (1–10%) and the automatic most-linear-tail rule on the same
//! measured pool and reports how the estimate and its CI move.
//!
//! Run: `cargo run --release -p optassign-bench --bin ablation_threshold [--scale f]`

use optassign_bench::{fmt_pps, print_table, BenchArgs};
use optassign_evt::pot::{PotAnalysis, PotConfig, ThresholdRule};
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let obs = scale.obs();
    let pool = scale
        .pool(Benchmark::IpFwdL1, scale.sample(5000), &obs)
        .expect("case-study workloads fit the machine");

    println!("Threshold ablation (IPFwd-L1, n = {})\n", pool.len());
    let rules: Vec<(String, ThresholdRule)> = vec![
        ("top 1%".into(), ThresholdRule::FractionAbove(0.01)),
        ("top 2%".into(), ThresholdRule::FractionAbove(0.02)),
        ("top 5% (paper)".into(), ThresholdRule::FractionAbove(0.05)),
        ("top 10%".into(), ThresholdRule::FractionAbove(0.10)),
        (
            "most linear tail".into(),
            ThresholdRule::MostLinearTail { max_fraction: 0.05 },
        ),
    ];
    let mut rows = Vec::new();
    for (name, rule) in rules {
        let cfg = PotConfig {
            threshold: rule,
            ..PotConfig::default()
        };
        match PotAnalysis::run(pool.performances(), &cfg) {
            Ok(a) => rows.push(vec![
                name,
                format!("{}", a.exceedances.len()),
                fmt_pps(a.upb.point),
                format!(
                    "[{} .. {}]",
                    fmt_pps(a.upb.ci_low),
                    a.upb.ci_high.map(fmt_pps).unwrap_or_else(|| "inf".into())
                ),
                format!("{:.3}", a.fit.gpd.shape()),
                format!("{:.3}", a.quantile_plot_r2),
            ]),
            Err(e) => rows.push(vec![
                name,
                "-".into(),
                format!("failed: {e}"),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
    }
    print_table(
        &[
            "threshold rule",
            "exceedances",
            "UPB",
            "95% CI",
            "shape",
            "qq R^2",
        ],
        &rows,
    );
    println!(
        "\nExpected: estimates agree within a few percent across reasonable\n\
         thresholds; very low thresholds (10%) bias the fit toward the\n\
         distribution's median — the reason for the paper's 5% cap."
    );
    scale.finish(&obs);
}
