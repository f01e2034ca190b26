//! Perf-trajectory gate over `BENCH_*.json` reports.
//!
//! Usage:
//!
//! ```text
//! bench_gate <current.json> [<baseline.json>] [--threshold 0.10]
//!            [--floor 1.0] [--strict]
//! ```
//!
//! Two checks, both over the baseline-vs-candidate entries a bench run
//! emits (scalar engine vs model, offline vs service, ...):
//!
//! 1. **Floor** — every entry's baseline/candidate speedup must be at
//!    least `--floor` (default 1.0): the candidate may never be slower
//!    than the reference it is measured against. The speedup is measured within
//!    one process, so it is meaningful even on noisy or throttled hosts.
//! 2. **Trajectory** (with a baseline) — the report and the baseline must
//!    name the same entries (a bench that stops emitting an entry fails
//!    its gate), and every entry's speedup must not regress more than
//!    `--threshold` (default 0.10, i.e. 10%) below the committed
//!    baseline's. With `--strict`, the raw `candidate_ns` medians are held
//!    to the same threshold too; raw nanoseconds only compare meaningfully
//!    on the machine that produced the baseline, so strict mode is opt-in.
//!
//! Exits non-zero listing every violated entry.

use optassign_obs::Json;
use std::process::ExitCode;

struct Entry {
    name: String,
    candidate_ns: f64,
    speedup: f64,
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).ok_or_else(|| format!("{path}: not valid JSON"))?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: missing \"entries\" array"))?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: entry missing numeric \"{k}\""))
            };
            Ok(Entry {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("{path}: entry missing \"name\""))?
                    .to_string(),
                candidate_ns: field("candidate_ns")?,
                speedup: field("speedup")?,
            })
        })
        .collect()
}

/// Every floor and trajectory violation of `current` against `baseline`,
/// in report order, then the baseline entries `current` lacks.
fn violations(
    current: &[Entry],
    baseline: Option<&[Entry]>,
    threshold: f64,
    floor: f64,
    strict: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    for cur in current {
        if cur.speedup < floor {
            violations.push(format!(
                "{}: speedup {:.3}x below floor {floor:.2}x",
                cur.name, cur.speedup
            ));
        }
        if let Some(base) = baseline {
            let Some(b) = base.iter().find(|b| b.name == cur.name) else {
                violations.push(format!("{}: entry missing from baseline", cur.name));
                continue;
            };
            if cur.speedup < b.speedup * (1.0 - threshold) {
                violations.push(format!(
                    "{}: speedup {:.3}x regressed >{:.0}% from baseline {:.3}x",
                    cur.name,
                    cur.speedup,
                    threshold * 100.0,
                    b.speedup
                ));
            }
            if strict && cur.candidate_ns > b.candidate_ns * (1.0 + threshold) {
                violations.push(format!(
                    "{}: candidate {:.1} ns regressed >{:.0}% from baseline {:.1} ns",
                    cur.name,
                    cur.candidate_ns,
                    threshold * 100.0,
                    b.candidate_ns
                ));
            }
        }
    }
    for b in baseline.unwrap_or_default() {
        if !current.iter().any(|cur| cur.name == b.name) {
            violations.push(format!("{}: baseline entry missing from report", b.name));
        }
    }
    violations
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.10f64;
    let mut floor = 1.0f64;
    let mut strict = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a number");
            }
            "--floor" => {
                floor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--floor needs a number");
            }
            "--strict" => strict = true,
            _ => paths.push(a),
        }
    }
    if paths.is_empty() || paths.len() > 2 {
        eprintln!("usage: bench_gate <current.json> [<baseline.json>] [--threshold 0.10] [--floor 1.0] [--strict]");
        return ExitCode::FAILURE;
    }

    let current = match load(&paths[0]) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match paths.get(1).map(|p| load(p)) {
        None => None,
        Some(Ok(b)) => Some(b),
        Some(Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    let violations = violations(&current, baseline.as_deref(), threshold, floor, strict);
    if violations.is_empty() {
        println!(
            "bench_gate: OK ({} entr{} checked{})",
            current.len(),
            if current.len() == 1 { "y" } else { "ies" },
            if baseline.is_some() {
                ", baseline compared"
            } else {
                ", floor only"
            }
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("bench_gate: FAIL {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, speedup: f64) -> Entry {
        Entry {
            name: name.to_string(),
            candidate_ns: 100.0,
            speedup,
        }
    }

    #[test]
    fn matching_report_passes() {
        let base = [entry("a", 1.3), entry("b", 1.4)];
        let cur = [entry("a", 1.3), entry("b", 1.35)];
        assert!(violations(&cur, Some(&base), 0.10, 1.1, true).is_empty());
    }

    #[test]
    fn report_entry_missing_from_baseline_fails() {
        let base = [entry("a", 1.3)];
        let cur = [entry("a", 1.3), entry("new", 1.3)];
        assert_eq!(
            violations(&cur, Some(&base), 0.10, 1.1, false),
            ["new: entry missing from baseline"]
        );
    }

    #[test]
    fn baseline_entry_missing_from_report_fails() {
        let base = [entry("a", 1.3), entry("simulate/Stateful", 1.4)];
        let cur = [entry("a", 1.3)];
        assert_eq!(
            violations(&cur, Some(&base), 0.10, 1.1, false),
            ["simulate/Stateful: baseline entry missing from report"]
        );
        // Without a baseline only the floor applies.
        assert!(violations(&cur, None, 0.10, 1.1, false).is_empty());
    }

    #[test]
    fn floor_and_regression_fail() {
        let base = [entry("a", 1.5)];
        let cur = [entry("a", 1.05)];
        let v = violations(&cur, Some(&base), 0.10, 1.1, false);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("below floor"), "{v:?}");
        assert!(v[1].contains("regressed"), "{v:?}");
    }
}
