//! Figure 7: the profile log-likelihood L*(UPB) and its Wilks cut.
//!
//! The UPB confidence interval contains every UPB whose profile
//! log-likelihood stays within ½·χ²₍₀.₉₅₎,₁ of the maximum. This binary
//! prints the curve around the estimate for the paper's 24-thread
//! IPFwd-L1 study.
//!
//! Run: `cargo run --release -p optassign-bench --bin fig7 [--scale f]`

use optassign_bench::{fmt_pps, print_table, BenchArgs};
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_evt::profile::ProfileLikelihood;
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let obs = scale.obs();
    let study = scale
        .pool(Benchmark::IpFwdL1, scale.sample(5000), &obs)
        .expect("case-study workloads fit the machine");
    println!("Figure 7: profile log-likelihood of the Upper Performance Bound\n");
    let analysis = match PotAnalysis::run(study.performances(), &PotConfig::default()) {
        Ok(analysis) => analysis,
        Err(e) => {
            // Small pools (`--scale 0.01`) may have no bounded POT fit;
            // fig11 and fig12 report the same draws the same way.
            println!("tail unresolved at n = {}: {e}", study.len());
            scale.finish(&obs);
            return;
        }
    };

    let profile = ProfileLikelihood::new(&analysis.exceedances).expect("validated");
    let u = analysis.threshold;
    let d_hat = analysis.upb.point - u;
    let l_max = analysis.upb.max_log_likelihood;
    let cut =
        l_max - 0.5 * optassign_stats::chi2::quantile(analysis.upb.confidence, 1.0).expect("0.95");

    println!("threshold u        : {}", fmt_pps(u));
    println!(
        "GPD fit            : {} exceedances, shape {:.3}, Q-Q R^2 {:.3}, KS {:.3}",
        analysis.exceedances.len(),
        analysis.fit.gpd.shape(),
        analysis.quantile_plot_r2,
        analysis.ks_distance
    );
    println!("UPB point estimate : {}", fmt_pps(analysis.upb.point));
    println!(
        "95% CI             : [{}, {}]",
        fmt_pps(analysis.upb.ci_low),
        analysis
            .upb
            .ci_high
            .map(fmt_pps)
            .unwrap_or_else(|| "unbounded".into())
    );
    println!("L*(UPB-hat)        : {l_max:.3}");
    println!("Wilks cut          : {cut:.3}  (L_max - chi2_95,1 / 2)\n");

    let mut rows = Vec::new();
    for i in 0..17 {
        // Sweep UPB from just above the best observation to ~2.5 D-hat.
        let t = i as f64 / 16.0;
        let d = profile.y_max() * 1.000_001 * (1.0 - t) + 2.5 * d_hat * t;
        let l = profile.eval(d);
        rows.push(vec![
            fmt_pps(u + d),
            format!("{l:.3}"),
            if l >= cut {
                "in CI".into()
            } else {
                String::new()
            },
        ]);
    }
    print_table(&["UPB", "L*(UPB)", ""], &rows);

    let curve = profile.curve(u, 2.5 * d_hat, 140);
    println!(
        "\n{}",
        optassign_bench::ascii::line_chart(
            &curve,
            70,
            14,
            "Fig 7: profile log-likelihood (x: UPB, y: L*)"
        )
    );
    println!(
        "\nThe curve peaks at the point estimate and the confidence interval is the\n\
         contiguous region above the cut — the construction of the paper's Figure 7."
    );
    scale.finish(&obs);
}
