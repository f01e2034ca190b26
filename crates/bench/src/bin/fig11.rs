//! Figure 11: estimated optimal system performance (UPB) with 95%
//! confidence intervals, for samples of 1000 / 2000 / 5000.
//!
//! The paper's finding: the point estimate is roughly constant across
//! sample sizes, while the confidence interval narrows markedly with more
//! samples (more exceedances fit the GPD tail).
//!
//! Run: `cargo run --release -p optassign-bench --bin fig11 [--scale f]`

use optassign_bench::{fmt_pps, print_table, sample_size_analysis, BenchArgs};
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let sizes = scale.sample_sizes();
    let obs = scale.obs();
    println!(
        "Figure 11: estimated optimal performance (point [CI]) at n = {:?}\n",
        sizes
    );
    let mut rows = Vec::new();
    for bench in Benchmark::paper_suite() {
        let points = sample_size_analysis(&scale, bench, &obs)
            .expect("case-study workloads fit the machine");
        let mut row = vec![bench.name().to_string()];
        for p in &points {
            row.push(match &p.analysis {
                Some(a) => {
                    let hi = a.upb.ci_high.map(fmt_pps).unwrap_or_else(|| "inf".into());
                    format!(
                        "{} [{} .. {}]",
                        fmt_pps(a.upb.point),
                        fmt_pps(a.upb.ci_low),
                        hi
                    )
                }
                None => "tail unresolved".into(),
            });
        }
        // CI width shrinkage from the smallest to the largest sample.
        let w0 = points[0].analysis.as_ref().and_then(|a| a.upb.ci_width());
        let w2 = points[points.len() - 1]
            .analysis
            .as_ref()
            .and_then(|a| a.upb.ci_width());
        row.push(match (w0, w2) {
            (Some(a), Some(b)) if a > 0.0 && b > 0.0 => format!("{:.1}x", a / b),
            _ => "-".into(),
        });
        rows.push(row);
    }
    let h2 = format!("n={}", sizes[0]);
    let h3 = format!("n={}", sizes[1]);
    let h4 = format!("n={}", sizes[2]);
    print_table(&["Benchmark", &h2, &h3, &h4, "CI narrowing"], &rows);
    println!(
        "\nPaper anchors: point estimates roughly equal across sample sizes; for four\n\
         of the five benchmarks (all but Aho-Corasick) the 0.95 confidence interval\n\
         narrows significantly as the sample grows (max 50/100/250 exceedances for\n\
         n = 1000/2000/5000 under the 5% threshold rule)."
    );
    scale.finish(&obs);
}
