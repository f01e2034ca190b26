//! A minimal micro-benchmark harness.
//!
//! The workspace builds with no registry access, so the Criterion benches
//! were ported to this self-contained harness: adaptive calibration to a
//! target measurement window, a handful of timed batches, and a
//! median-of-batches report. The bench targets set `harness = false`; run
//! them with `cargo bench` or `cargo bench --bench <name>`.

use std::hint::black_box;
use std::time::Instant;

/// Target wall-clock spent measuring each benchmark (after calibration).
const TARGET_MEASURE_NANOS: u128 = 200_000_000; // 200 ms
/// Number of timed batches the target window is split into.
const BATCHES: usize = 10;

/// The measurement window, allowing `OPTASSIGN_BENCH_WINDOW_MS` to
/// shrink it for smoke runs (CI gates that only sanity-check the
/// numbers) or stretch it for low-noise baseline captures.
fn target_measure_nanos() -> u128 {
    std::env::var("OPTASSIGN_BENCH_WINDOW_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u128>().ok())
        .map_or(TARGET_MEASURE_NANOS, |ms| ms.max(1) * 1_000_000)
}

/// Number of timed batches, allowing `OPTASSIGN_BENCH_BATCHES` to raise
/// it for baseline captures — a median over more batches is what the
/// perf gate diffs against, so the baseline deserves the extra runtime.
fn batch_count() -> usize {
    std::env::var("OPTASSIGN_BENCH_BATCHES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(BATCHES, |n| n.clamp(3, 100))
}

/// Runs `f` repeatedly and prints a one-line timing report; returns the
/// median per-iteration time in nanoseconds.
///
/// The harness first calibrates how many iterations fit in one batch, then
/// times 10 batches (`OPTASSIGN_BENCH_BATCHES` overrides) and reports the
/// median batch's per-iteration time, with the min/max batch spread as a
/// dispersion hint.
pub fn bench<R, F: FnMut() -> R>(name: &str, mut f: F) -> f64 {
    // Calibration: grow the batch size until one batch fills 1/BATCHES of
    // the target window (or the batch is already enormous).
    let batches = batch_count();
    let mut iters_per_batch: u64 = 1;
    let batch_budget = target_measure_nanos() / batches as u128;
    loop {
        let start = Instant::now();
        for _ in 0..iters_per_batch {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= batch_budget || iters_per_batch >= 1 << 30 {
            break;
        }
        let scale = batch_budget
            .checked_div(elapsed)
            .map_or(8, |s| s.clamp(2, 8)) as u64;
        iters_per_batch = iters_per_batch.saturating_mul(scale);
    }

    let mut per_iter: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters_per_batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[batches / 2];
    let (lo, hi) = (per_iter[0], per_iter[batches - 1]);
    println!(
        "{name:<44} {:>12}/iter  (spread {} .. {}, {iters_per_batch} iters/batch)",
        fmt_nanos(median),
        fmt_nanos(lo),
        fmt_nanos(hi),
    );
    median
}

/// Like [`bench()`], but also reports throughput for `bytes` of input
/// processed per iteration.
pub fn bench_throughput<R, F: FnMut() -> R>(name: &str, bytes: u64, f: F) {
    let median_nanos = bench(name, f);
    if median_nanos > 0.0 {
        let gb_per_s = bytes as f64 / median_nanos; // bytes/ns == GB/s
        println!("{:<44} {gb_per_s:>9.3} GB/s", format!("  └ throughput"));
    }
}

/// Prints a section header separating benchmark groups.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

/// One baseline-vs-candidate comparison row of a bench report: the
/// scalar engine vs the model, an offline vs a served campaign, one vs
/// three workers — whatever the bench compares, in one unit.
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Benchmark name (stable across runs; the gate matches on it).
    pub name: String,
    /// Median cost of the reference side, ns per unit of work.
    pub baseline_ns: f64,
    /// Median cost of the side under test, ns per unit of work.
    pub candidate_ns: f64,
}

impl BenchEntry {
    /// Baseline-over-candidate speedup (> 1 means the candidate is faster).
    /// This ratio is measured within one process on one machine, so —
    /// unlike the raw nanosecond medians — it transfers across hosts and
    /// is what the perf gate primarily enforces.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.baseline_ns / self.candidate_ns.max(1e-9)
    }
}

/// Renders a bench report as the JSON document the perf gate consumes
/// (`BENCH_<name>.json`): a `bench` tag and one entry per benchmark.
#[must_use]
pub fn bench_report_json(bench: &str, entries: &[BenchEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"entries\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_ns\": {:.1}, \"candidate_ns\": {:.1}, \"speedup\": {:.3}}}{comma}\n",
            e.name,
            e.baseline_ns,
            e.candidate_ns,
            e.speedup(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a nanosecond count with an adaptive unit.
fn fmt_nanos(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(12.0), "12.0 ns");
        assert_eq!(fmt_nanos(4_500.0), "4.50 µs");
        assert_eq!(fmt_nanos(7_200_000.0), "7.20 ms");
        assert_eq!(fmt_nanos(1_500_000_000.0), "1.500 s");
    }
}
