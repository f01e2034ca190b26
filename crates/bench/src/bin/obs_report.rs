//! `obs_report` — post-run analysis of a JSONL observability journal.
//!
//! Reads the journal a bench binary wrote via `--metrics <path>` and
//! renders what happened as deterministic ASCII tables on stdout:
//!
//! * per-phase latency percentiles (from the final `metrics_snapshot`'s
//!   histograms, interpolated like `histogram_quantile`),
//! * the round-by-round convergence trace of the iterative loop
//!   (the Figure 14 gap trace, from `iteration` events),
//! * how the campaign's slots were resolved — replayed from the journal,
//!   served by a peer, or measured (from the resolution counters),
//! * the fault/degradation timeline (`degradation` and
//!   `recorder_io_errors` events, in order of occurrence).
//!
//! `--chrome-trace <out.json>` additionally exports the journal's span
//! events as a Chrome trace (load it at <https://ui.perfetto.dev>).
//!
//! `--fleet <dir>` switches to fleet mode: every `*.jsonl` journal in
//! the directory (sorted by file name) is stitched into **one** merged
//! Chrome trace — per-process tracks, request/response clock alignment,
//! cross-process flow arrows (see `optassign_obs::stitch`) — written to
//! the `--chrome-trace` path (default `<dir>/merged_trace.json`), with
//! a deterministic per-process summary on stdout.
//!
//! Journals from killed runs end in a torn line and concurrent writers
//! can interleave: malformed lines are skipped with a counted warning on
//! stderr, never a crash. When the count exceeds `--max-malformed N`
//! (default 0), the exit code is 2 — a journal can be *slightly* torn
//! by a kill, but wholesale garbage should fail loudly. Given the same
//! journal bytes, stdout is byte-identical run to run.
//!
//! Usage: `obs_report <journal.jsonl> [--chrome-trace <out.json>] [--max-malformed N]`
//!        `obs_report --fleet <dir> [--chrome-trace <out.json>] [--max-malformed N]`

use optassign_bench::print_table;
use optassign_obs::stitch::stitch_journals;
use optassign_obs::trace::{chrome_trace_json, spans_from_journal};
use optassign_obs::{Histogram, Json, MetricsRegistry};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: obs_report <journal.jsonl> [--chrome-trace <out.json>] [--max-malformed N]
       obs_report --fleet <dir> [--chrome-trace <out.json>] [--max-malformed N]";

/// Exit code when malformed journal lines exceed `--max-malformed`.
const MALFORMED_EXIT: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut journal: Option<PathBuf> = None;
    let mut fleet_dir: Option<PathBuf> = None;
    let mut chrome_out: Option<PathBuf> = None;
    let mut max_malformed = 0u64;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--chrome-trace" && i + 1 < args.len() {
            chrome_out = Some(PathBuf::from(&args[i + 1]));
            i += 2;
            continue;
        }
        if args[i] == "--fleet" && i + 1 < args.len() {
            fleet_dir = Some(PathBuf::from(&args[i + 1]));
            i += 2;
            continue;
        }
        if args[i] == "--max-malformed" && i + 1 < args.len() {
            match args[i + 1].parse::<u64>() {
                Ok(n) => max_malformed = n,
                Err(_) => {
                    eprintln!("obs_report: --max-malformed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
            i += 2;
            continue;
        }
        if !args[i].starts_with("--") && journal.is_none() {
            journal = Some(PathBuf::from(&args[i]));
        }
        i += 1;
    }
    if let Some(dir) = fleet_dir {
        return fleet_report(&dir, chrome_out.as_deref(), max_malformed);
    }
    let Some(path) = journal else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("obs_report: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    // One parse pass. Torn tails (kill -9 mid-write) and interleaved
    // lines are expected in the wild: count and skip, never abort.
    let mut events: Vec<Json> = Vec::new();
    let mut malformed = 0u64;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match Json::parse(line) {
            Some(event) => events.push(event),
            None => malformed += 1,
        }
    }
    if malformed > 0 {
        eprintln!(
            "[obs_report] skipped {malformed} malformed line(s) (torn tail or interleaved writes)"
        );
    }
    println!(
        "journal: {} events ({} malformed line(s) skipped)",
        events.len(),
        malformed
    );
    report_prom_sidecar(&path);

    let snapshot = final_snapshot(&events);
    phase_latency_section(snapshot.as_ref());
    convergence_section(&events);
    resolution_section(snapshot.as_ref());
    degradation_section(&events);

    if let Some(out) = chrome_out {
        let (spans, _) = spans_from_journal(text.lines());
        match std::fs::write(&out, chrome_trace_json(&spans)) {
            Ok(()) => eprintln!(
                "[obs_report] wrote chrome trace: {} ({} spans)",
                out.display(),
                spans.len()
            ),
            Err(e) => {
                eprintln!("obs_report: cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if malformed > max_malformed {
        eprintln!(
            "obs_report: {malformed} malformed line(s) exceed --max-malformed {max_malformed}"
        );
        return ExitCode::from(MALFORMED_EXIT);
    }
    ExitCode::SUCCESS
}

/// Fleet mode: stitch every `*.jsonl` journal in `dir` (file-name order)
/// into one merged Chrome trace with cross-process flow arrows.
fn fleet_report(
    dir: &std::path::Path,
    chrome_out: Option<&std::path::Path>,
    max_malformed: u64,
) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("obs_report: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    let mut journals: Vec<(String, String)> = Vec::new();
    for path in &paths {
        let name = path.file_stem().map_or_else(
            || path.display().to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        match std::fs::read_to_string(path) {
            Ok(text) => journals.push((name, text)),
            Err(e) => {
                eprintln!("obs_report: cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if journals.is_empty() {
        eprintln!("obs_report: no *.jsonl journals in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let report = stitch_journals(&journals);
    println!(
        "fleet: {} journal(s), {} span(s), {} rpc event(s), {} cross-process pair(s), {} malformed line(s)",
        report.processes, report.spans, report.rpc_events, report.pairs, report.malformed
    );
    let out = chrome_out.map_or_else(
        || dir.join("merged_trace.json"),
        std::path::Path::to_path_buf,
    );
    if let Err(e) = std::fs::write(&out, &report.json) {
        eprintln!("obs_report: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("[obs_report] wrote merged chrome trace: {}", out.display());
    if report.malformed > max_malformed {
        eprintln!(
            "obs_report: {} malformed line(s) exceed --max-malformed {max_malformed}",
            report.malformed
        );
        return ExitCode::from(MALFORMED_EXIT);
    }
    ExitCode::SUCCESS
}

/// Notes the Prometheus sidecar a `--metrics` run writes next to its
/// journal, when present (stdout mentions only the series count, so
/// output stays path-independent).
fn report_prom_sidecar(journal: &std::path::Path) {
    let mut sidecar = journal.to_path_buf().into_os_string();
    sidecar.push(".prom");
    if let Ok(text) = std::fs::read_to_string(PathBuf::from(sidecar)) {
        let series = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count();
        println!("prom sidecar: present ({series} series)");
    }
}

/// The last `metrics_snapshot` event's embedded registry, if any.
fn final_snapshot(events: &[Json]) -> Option<MetricsRegistry> {
    events
        .iter()
        .rev()
        .find(|e| e.kind() == Some("metrics_snapshot"))
        .and_then(|e| e.get("metrics"))
        .map(MetricsRegistry::from_json)
}

/// Interpolated quantile, rendered as integer nanoseconds.
fn fmt_quantile(hist: &Histogram, q: f64) -> String {
    hist.quantile(q)
        .map_or_else(|| "-".into(), |v| format!("{v:.0}"))
}

fn phase_latency_section(snapshot: Option<&MetricsRegistry>) {
    println!("\n== phase latency (ns) ==");
    let Some(metrics) = snapshot else {
        println!("no metrics_snapshot event (journal truncated before the final flush?)");
        return;
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, hist) in metrics.histograms() {
        // Phase timings end in `_ns` by workspace convention; value
        // histograms (queue depths, sample sizes) are not latencies.
        if !name.ends_with("_ns") {
            continue;
        }
        rows.push(vec![
            name.to_string(),
            hist.count().to_string(),
            fmt_quantile(hist, 0.50),
            fmt_quantile(hist, 0.95),
            fmt_quantile(hist, 0.99),
            hist.max().map_or_else(|| "-".into(), |v| v.to_string()),
        ]);
    }
    if rows.is_empty() {
        println!("snapshot carries no *_ns histograms");
        return;
    }
    print_table(&["phase", "count", "p50", "p95", "p99", "max"], &rows);
}

fn fmt_f64_field(event: &Json, key: &str, precision: usize) -> String {
    event
        .get(key)
        .and_then(Json::as_f64)
        .map_or_else(|| "-".into(), |v| format!("{v:.precision$}"))
}

fn convergence_section(events: &[Json]) {
    println!("\n== convergence ==");
    let rows: Vec<Vec<String>> = events
        .iter()
        .filter(|e| e.kind() == Some("iteration"))
        .enumerate()
        .map(|(i, e)| {
            vec![
                (i + 1).to_string(),
                e.get("samples")
                    .and_then(Json::as_u64)
                    .map_or_else(|| "-".into(), |v| v.to_string()),
                fmt_f64_field(e, "best_observed", 3),
                fmt_f64_field(e, "estimated_optimal", 3),
                fmt_f64_field(e, "gap", 4),
                e.get("method")
                    .and_then(Json::as_str)
                    .unwrap_or("-")
                    .to_string(),
            ]
        })
        .collect();
    if rows.is_empty() {
        println!("no iteration events (not an iterative-algorithm run?)");
    } else {
        print_table(&["round", "samples", "best", "upb", "gap", "method"], &rows);
    }
    if let Some(done) = events
        .iter()
        .rev()
        .find(|e| e.kind() == Some("iterative_done"))
    {
        println!(
            "stopped: {} (converged: {}) after {} samples, {} evaluations",
            done.get("stop").and_then(Json::as_str).unwrap_or("-"),
            done.get("converged")
                .and_then(Json::as_bool)
                .map_or_else(|| "-".into(), |b| b.to_string()),
            done.get("samples_used")
                .and_then(Json::as_u64)
                .map_or_else(|| "-".into(), |v| v.to_string()),
            done.get("evaluations")
                .and_then(Json::as_u64)
                .map_or_else(|| "-".into(), |v| v.to_string()),
        );
    } else if !rows.is_empty() {
        println!("stopped: (no iterative_done event — run interrupted?)");
    }
}

fn resolution_section(snapshot: Option<&MetricsRegistry>) {
    println!("\n== slot resolution ==");
    let counter = |name: &str| snapshot.map_or(0, |m| m.counter(name));
    let replayed = counter("exec_replayed_total");
    let peer_hits = counter("exec_peer_hits_total");
    let measured = counter("exec_measured_total");
    if replayed + peer_hits + measured == 0 {
        println!("no resolved slots (run without a campaign store?)");
        return;
    }
    println!("{replayed} replayed from the journal");
    println!("{peer_hits} served by peers");
    println!("{measured} measured");
}

fn degradation_section(events: &[Json]) {
    println!("\n== fault / degradation timeline ==");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for event in events {
        match event.kind() {
            Some("degradation") => {
                let detail: Vec<String> = event
                    .as_object()
                    .map(|members| {
                        members
                            .iter()
                            .filter(|(k, _)| !matches!(k.as_str(), "kind" | "what" | "samples"))
                            .map(|(k, v)| format!("{k}={}", plain_value(v)))
                            .collect()
                    })
                    .unwrap_or_default();
                rows.push(vec![
                    event
                        .get("what")
                        .and_then(Json::as_str)
                        .unwrap_or("-")
                        .to_string(),
                    event
                        .get("samples")
                        .and_then(Json::as_u64)
                        .map_or_else(|| "-".into(), |v| v.to_string()),
                    detail.join(" "),
                ]);
            }
            Some("recorder_io_errors") => rows.push(vec![
                "recorder_io_errors".to_string(),
                "-".to_string(),
                format!(
                    "count={}",
                    event.get("count").and_then(Json::as_u64).unwrap_or(0)
                ),
            ]),
            // Storage damage found (and repaired) while opening the
            // campaign store: torn tails and quarantined frames.
            Some(kind @ ("store_tail_truncated" | "store_frames_quarantined")) => {
                let mut detail = vec![format!(
                    "bytes={}",
                    event.get("bytes").and_then(Json::as_u64).unwrap_or(0)
                )];
                if let Some(frames) = event.get("frames").and_then(Json::as_u64) {
                    detail.push(format!("frames={frames}"));
                }
                if let Some(path) = event.get("path").and_then(Json::as_str) {
                    detail.push(format!("path={path}"));
                }
                rows.push(vec![kind.to_string(), "-".to_string(), detail.join(" ")]);
            }
            _ => {}
        }
    }
    if rows.is_empty() {
        println!("clean run: no degradation events");
    } else {
        let numbered: Vec<Vec<String>> = rows
            .into_iter()
            .enumerate()
            .map(|(i, mut row)| {
                let mut full = vec![(i + 1).to_string()];
                full.append(&mut row);
                full
            })
            .collect();
        print_table(&["#", "what", "samples", "detail"], &numbered);
    }
}

/// Compact scalar rendering for degradation-event detail columns.
fn plain_value(value: &Json) -> String {
    match value {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::U64(v) => v.to_string(),
        Json::F64(v) => format!("{v}"),
        Json::Str(s) => s.clone(),
        Json::Arr(_) | Json::Obj(_) => "…".to_string(),
    }
}
