//! Ablation: Peaks-Over-Threshold (paper) vs GEV block maxima.
//!
//! Both are textbook EVT routes to an upper endpoint; POT uses every tail
//! observation while block maxima keeps one point per block. This
//! experiment compares their estimates and data efficiency on synthetic
//! data with a known bound and on a measured pool.
//!
//! Run: `cargo run --release -p optassign-bench --bin ablation_blockmax [--scale f]`

use optassign_bench::{fmt_pps, print_table, BenchArgs};
use optassign_evt::block_maxima::fit_block_maxima;
use optassign_evt::gpd::Gpd;
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let obs = scale.obs();

    println!("POT vs block maxima, part 1: known truth\n");
    let truth = 24.0;
    let g = Gpd::new(-0.25, 1.0).expect("valid");
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(21);
    let sample: Vec<f64> = (0..5000).map(|_| 20.0 + g.sample(&mut rng)).collect();

    let pot = PotAnalysis::run(&sample, &PotConfig::default()).expect("bounded tail");
    let mut rows = vec![vec![
        "POT (top 5%, paper)".to_string(),
        format!("{} tail points", pot.exceedances.len()),
        format!("{:.3}", pot.upb.point),
        format!("{:+.2}%", (pot.upb.point / truth - 1.0) * 100.0),
    ]];
    for block in [25usize, 50, 100] {
        match fit_block_maxima(&sample, block) {
            Ok(bm) => rows.push(vec![
                format!("block maxima (b={block})"),
                format!("{} maxima", bm.blocks),
                format!("{:.3}", bm.upper_bound),
                format!("{:+.2}%", (bm.upper_bound / truth - 1.0) * 100.0),
            ]),
            Err(e) => rows.push(vec![
                format!("block maxima (b={block})"),
                "-".into(),
                format!("failed: {e}"),
                String::new(),
            ]),
        }
    }
    println!("true optimum {truth:.3}");
    print_table(&["method", "data used", "estimate", "error"], &rows);

    println!("\nPOT vs block maxima, part 2: measured pool (Stateful)\n");
    let pool = scale
        .pool(Benchmark::Stateful, scale.sample(4000), &obs)
        .expect("case-study workloads fit the machine");
    let pot = PotAnalysis::run(pool.performances(), &PotConfig::default()).expect("tail");
    let mut rows = vec![vec![
        "POT (top 5%, paper)".to_string(),
        fmt_pps(pot.upb.point),
    ]];
    for block in [40usize, 80] {
        match fit_block_maxima(pool.performances(), block) {
            Ok(bm) => rows.push(vec![
                format!("block maxima (b={block})"),
                fmt_pps(bm.upper_bound),
            ]),
            Err(e) => rows.push(vec![
                format!("block maxima (b={block})"),
                format!("failed: {e}"),
            ]),
        }
    }
    print_table(&["method", "estimated optimum"], &rows);
    println!(
        "\nExpected: both methods agree on the endpoint; POT extracts more tail\n\
         information per measured assignment (hundreds of exceedances vs dozens of\n\
         block maxima), which is why the paper builds on POT."
    );
    scale.finish(&obs);
}
