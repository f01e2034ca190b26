//! Figure 10: best task assignment captured in random samples of
//! 1000 / 2000 / 5000, for all five benchmarks (24 threads each).
//!
//! The paper's finding: growing the sample from 1000 to 5000 improves the
//! captured best assignment only marginally (≤ 0.6%).
//!
//! Run: `cargo run --release -p optassign-bench --bin fig10 [--scale f]`

use optassign_bench::{fmt_pps, print_table, sample_size_analysis, BenchArgs};
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let sizes = scale.sample_sizes();
    let obs = scale.obs();
    println!(
        "Figure 10: best-in-sample performance at n = {:?} (24 threads per benchmark)\n",
        sizes
    );
    let mut rows = Vec::new();
    for bench in Benchmark::paper_suite() {
        // Only the per-prefix best values are needed here; the analyses
        // ride along for free.
        let points = sample_size_analysis(&scale, bench, &obs)
            .expect("case-study workloads fit the machine");
        let best_small = points[0].best;
        let best_large = points[points.len() - 1].best;
        let mut row = vec![bench.name().to_string()];
        row.extend(points.iter().map(|p| fmt_pps(p.best)));
        row.push(format!("{:+.2}%", (best_large / best_small - 1.0) * 100.0));
        rows.push(row);
    }
    let h2 = format!("n={}", sizes[0]);
    let h3 = format!("n={}", sizes[1]);
    let h4 = format!("n={}", sizes[2]);
    print_table(&["Benchmark", &h2, &h3, &h4, "gain small->large"], &rows);
    println!(
        "\nPaper anchors: increasing the sample from 1000 to 5000 improves the best\n\
         captured assignment by at most 0.6% (IPFwd-Mem); below 0.25% for the rest."
    );
    scale.finish(&obs);
}
