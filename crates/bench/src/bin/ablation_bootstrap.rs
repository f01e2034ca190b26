//! Ablation: EVT (Peaks-Over-Threshold) vs bootstrapping the maximum.
//!
//! A bootstrap of the sample maximum can never see past the best
//! observation, so it cannot estimate the optimum of an unexplored
//! assignment space. This experiment quantifies the gap on (a) synthetic
//! data with a known bound and (b) a measured pool where the "truth" proxy
//! is the best of a much larger sample.
//!
//! Run: `cargo run --release -p optassign-bench --bin ablation_bootstrap [--scale f]`

use optassign_bench::{fmt_pps, print_table, BenchArgs};
use optassign_evt::bootstrap::bootstrap_max;
use optassign_evt::gpd::Gpd;
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let obs = scale.obs();

    println!("Bootstrap-vs-EVT ablation, part 1: known truth\n");
    let truth = 105.0;
    let g = Gpd::new(-0.3, 1.5).expect("valid");
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(9);
    let sample: Vec<f64> = (0..2000).map(|_| 100.0 + g.sample(&mut rng)).collect();
    let observed_best = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);

    let pot = PotAnalysis::run(&sample, &PotConfig::default()).expect("bounded tail");
    let boot = bootstrap_max(&sample, 1000, 0.95, 11).expect("valid");
    let rows = vec![
        vec![
            "EVT / POT (paper)".to_string(),
            format!("{:.3}", pot.upb.point),
            format!(
                "[{:.3} .. {}]",
                pot.upb.ci_low,
                pot.upb
                    .ci_high
                    .map(|h| format!("{h:.3}"))
                    .unwrap_or_else(|| "inf".into())
            ),
            format!("{:+.2}%", (pot.upb.point / truth - 1.0) * 100.0),
        ],
        vec![
            "bootstrap max".to_string(),
            format!("{:.3}", boot.point),
            format!("[{:.3} .. {:.3}]", boot.ci_low, boot.ci_high),
            format!("{:+.2}%", (boot.point / truth - 1.0) * 100.0),
        ],
    ];
    println!("true optimum {truth:.3}, best of 2000 observations {observed_best:.3}");
    print_table(&["method", "point", "95% CI", "error vs truth"], &rows);

    println!("\nBootstrap-vs-EVT ablation, part 2: measured pool (IPFwd-L1)\n");
    let big = scale
        .pool(Benchmark::IpFwdL1, scale.sample(5000), &obs)
        .expect("case-study workloads fit the machine");
    let small = big.prefix(scale.sample(1000)).expect("within pool");
    let truth_proxy = big.best_performance();
    let pot = PotAnalysis::run(small.performances(), &PotConfig::default()).expect("tail");
    let boot = bootstrap_max(small.performances(), 1000, 0.95, 13).expect("valid");
    let rows = vec![
        vec![
            "EVT / POT (paper)".to_string(),
            fmt_pps(pot.upb.point),
            format!("{:+.2}%", (pot.upb.point / truth_proxy - 1.0) * 100.0),
        ],
        vec![
            "bootstrap max".to_string(),
            fmt_pps(boot.ci_high),
            format!("{:+.2}%", (boot.ci_high / truth_proxy - 1.0) * 100.0),
        ],
        vec![
            format!("best of the {}-sample pool (truth proxy)", big.len()),
            fmt_pps(truth_proxy),
            "0.00%".into(),
        ],
    ];
    print_table(
        &["method (on the small sample)", "estimate", "vs truth proxy"],
        &rows,
    );
    println!(
        "\nExpected: the bootstrap never exceeds the small sample's best observation\n\
         and therefore underestimates the pool optimum; the EVT estimate\n\
         extrapolates to (or slightly above) it — which is why the paper needs EVT."
    );
    scale.finish(&obs);
}
