//! Extension (paper §5.4/§6): workload *selection* on a single-sharing-level
//! SMT core, driven by the same statistical machinery.
//!
//! 16 heterogeneous ready tasks, 8 SMT slots: C(16,8) = 12870 possible
//! workloads. Random workload sampling plus POT estimation bounds the
//! optimal co-schedule — and the small population even allows an
//! exhaustive check of how close the estimate lands.
//!
//! Run: `cargo run --release -p optassign-bench --bin ext_selection
//! [--scale f] [--workers n]`
//!
//! `--scale` and `--workers` are its only flags: the exhaustive sweep
//! runs on `--workers` threads (default: every core), and the binary
//! keeps no store and emits no events, so `--metrics`, `--checkpoint`,
//! `--resume` and `--serve` are usage errors.

use optassign::selection::{SelectionModel, SelectionStudy, SmtMixModel};
use optassign::Parallelism;
use optassign_bench::{fmt_pps, print_table, BenchArgs};
use optassign_evt::pot::PotConfig;
use optassign_exec::parallel_map;
use optassign_obs::Obs;

/// All k-subsets of 0..n, in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut all = Vec::new();
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        all.push(combo.clone());
        // Next combination in lexicographic order.
        let mut i = k;
        loop {
            if i == 0 {
                return all;
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

/// Evaluates every workload on `par`'s workers and returns the best; a
/// tie goes to the first in lexicographic order, whatever the worker
/// count.
fn exhaustive_best(model: &SmtMixModel, par: Parallelism) -> (Vec<usize>, f64) {
    let combos = combinations(model.candidates(), model.slots());
    let values = parallel_map(par, combos.len(), &Obs::disabled(), |i| {
        model.evaluate(&combos[i])
    });
    let mut best = 0;
    for (i, &p) in values.iter().enumerate() {
        if p > values[best] {
            best = i;
        }
    }
    (combos[best].clone(), values[best])
}

fn main() {
    let scale = BenchArgs::from_args_honouring(&["--scale", "--workers"]);
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

    let par = scale.parallelism();
    eprintln!(
        "[selection] exhaustive sweep of all 12870 workloads on {} workers…",
        par.workers
    );
    let (true_sel, true_pps) = exhaustive_best(&model, par);

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_matches_the_serial_sweep_bit_for_bit() {
        let kinds: Vec<_> = SmtMixModel::default_pool(3, 5)
            .kinds()
            .iter()
            .step_by(2)
            .copied()
            .collect();
        let model = SmtMixModel::new(kinds, 3, 5);
        assert_eq!(model.candidates(), 8);
        let mut serial: Option<(Vec<usize>, f64)> = None;
        for a in 0..8 {
            for b in a + 1..8 {
                for c in b + 1..8 {
                    let p = model.evaluate(&[a, b, c]);
                    if serial.as_ref().is_none_or(|(_, best)| p > *best) {
                        serial = Some((vec![a, b, c], p));
                    }
                }
            }
        }
        let (serial_sel, serial_pps) = serial.expect("56 workloads");
        for workers in [1, 4] {
            let (sel, pps) = exhaustive_best(&model, Parallelism::new(workers));
            assert_eq!(sel, serial_sel, "{workers} workers");
            assert_eq!(pps.to_bits(), serial_pps.to_bits(), "{workers} workers");
        }
    }
}
