//! Extension (paper §5.4/§6): workload *selection* on a single-sharing-level
//! SMT core, driven by the same statistical machinery.
//!
//! 16 heterogeneous ready tasks, 8 SMT slots: C(16,8) = 12870 possible
//! workloads. Random workload sampling plus POT estimation bounds the
//! optimal co-schedule — and the small population even allows an
//! exhaustive check of how close the estimate lands.
//!
//! Run: `cargo run --release -p optassign-bench --bin ext_selection [--scale f]`
//!
//! `--scale` is its only flag: the sample and the exhaustive sweep run
//! serially, with no store and no events, so `--workers`, `--metrics`,
//! `--checkpoint`, `--resume` and `--serve` are usage errors.

use optassign::selection::{SelectionModel, SelectionStudy, SmtMixModel};
use optassign_bench::{fmt_pps, print_table, BenchArgs};
use optassign_evt::pot::PotConfig;

/// Enumerates all k-subsets of 0..n and returns the best performance.
fn exhaustive_best(model: &SmtMixModel) -> (Vec<usize>, f64) {
    let (n, k) = (model.candidates(), model.slots());
    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        let p = model.evaluate(&combo);
        if best.as_ref().map(|(_, bp)| p > *bp).unwrap_or(true) {
            best = Some((combo.clone(), p));
        }
        // Next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return best.expect("at least one combination");
            }
            i -= 1;
            if combo[i] != i + n - k {
                break;
            }
        }
        combo[i] += 1;
        for j in i + 1..k {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

fn main() {
    let scale = BenchArgs::from_args_honouring(&["--scale"]);
    let model = SmtMixModel::default_pool(8, 3);
    let n = scale.sample(800);

    println!(
        "Workload selection on one SMT core: choose {} of {} ready tasks\n",
        model.slots(),
        model.candidates()
    );
    eprintln!("[selection] sampling {n} random workloads…");
    let study = SelectionStudy::run(&model, n, 5).expect("feasible");
    let (best_sel, best_pps) = study.best();
    let analysis = study
        .estimate_optimal(&PotConfig::default())
        .expect("bounded tail");

    eprintln!("[selection] exhaustive sweep of all 12870 workloads…");
    let (true_sel, true_pps) = exhaustive_best(&model);

    let rows = vec![
        vec![
            "best random-sample workload".to_string(),
            format!("{best_sel:?}"),
            fmt_pps(best_pps),
        ],
        vec![
            "estimated optimal (POT)".to_string(),
            "-".to_string(),
            format!(
                "{} [{} .. {}]",
                fmt_pps(analysis.upb.point),
                fmt_pps(analysis.upb.ci_low),
                analysis
                    .upb
                    .ci_high
                    .map(fmt_pps)
                    .unwrap_or_else(|| "inf".into())
            ),
        ],
        vec![
            "true optimal (exhaustive)".to_string(),
            format!("{true_sel:?}"),
            fmt_pps(true_pps),
        ],
    ];
    print_table(&["workload", "task indices", "performance"], &rows);
    println!(
        "\nestimate error vs truth: {:+.2}%   best-sample loss vs truth: {:.2}%",
        (analysis.upb.point / true_pps - 1.0) * 100.0,
        (1.0 - best_pps / true_pps) * 100.0
    );
    println!(
        "\nThe paper's claim (§6): on processors with one level of resource sharing,\n\
         the same methodology solves workload selection directly — sample random\n\
         workloads, measure, estimate the optimum, and stop when close enough."
    );
}
