//! The telemetry hub: a [`Recorder`] that keeps lock-light, bounded
//! state for a live HTTP endpoint to serve.
//!
//! The hub sits behind a [`crate::Tee`] next to the run's real
//! journal recorder, so it sees every event the journal sees. It keeps
//! two things, each behind its own short-hold mutex:
//!
//! * a bounded ring of recent event lines (the `/trace` source — span
//!   events are sparse, so the ring comfortably covers a run's
//!   timeline before eviction starts), and
//! * a running digest of the iterative loop (`/progress`): the latest
//!   round's convergence numbers and the stop reason once the loop ends.
//!
//! Observation stays one-way: the hub only ever *receives* events, never
//! feeds anything back into the pipeline, so the workspace's
//! never-perturbs contract is untouched by serving telemetry.

use crate::trace::chrome_trace_from_journal;
use crate::{Event, Recorder, Value};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Ring capacity for recent event lines. Span, iteration, and region
/// events arrive at a few per round; 4096 lines cover thousands of
/// rounds before the `/trace` view starts losing its oldest spans.
const RING_CAP: usize = 4096;

/// Latest iterative-loop state, rebuilt from journal events as they
/// stream through the hub.
#[derive(Debug, Clone, Default)]
struct Progress {
    /// Rounds seen so far (== number of `iteration` events).
    round: u64,
    /// Sample size at the latest round.
    samples: u64,
    /// Best performance observed so far.
    best_observed: Option<f64>,
    /// Latest UPB point estimate.
    estimated_optimal: Option<f64>,
    /// Latest `(UPB − best)/UPB` gap.
    gap: Option<f64>,
    /// Estimator rung that produced the latest estimate.
    method: Option<String>,
    /// Stop reason, once `iterative_done` has been seen.
    stop: Option<String>,
    /// Degradation events seen so far.
    degradations: u64,
}

/// Bounded, shareable telemetry state; see the module docs.
#[derive(Debug, Default)]
pub struct TelemetryHub {
    events: Mutex<VecDeque<String>>,
    progress: Mutex<Progress>,
}

impl TelemetryHub {
    /// A fresh hub with empty ring and progress state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recent event lines, oldest first.
    #[must_use]
    pub fn recent_events(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Chrome trace JSON over the span events currently in the ring.
    #[must_use]
    pub fn trace_json(&self) -> String {
        let lines = self.recent_events();
        let (json, _malformed) = chrome_trace_from_journal(lines.iter().map(String::as_str));
        json
    }

    /// The `/progress` JSON document: latest round index, sample size,
    /// best-in-sample, UPB, gap, estimator method, degradation count,
    /// and the stop reason (`null` while the loop is still running).
    #[must_use]
    pub fn progress_json(&self) -> String {
        let p = self
            .progress
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut out = String::new();
        let _ = write!(out, "{{\"round\":{},\"samples\":{}", p.round, p.samples);
        push_opt_f64(&mut out, "best_observed", p.best_observed);
        push_opt_f64(&mut out, "estimated_optimal", p.estimated_optimal);
        push_opt_f64(&mut out, "gap", p.gap);
        push_opt_str(&mut out, "method", p.method.as_deref());
        push_opt_str(&mut out, "stop", p.stop.as_deref());
        let _ = write!(out, ",\"degradations\":{}}}", p.degradations);
        out
    }

    fn digest(&self, event: &Event) {
        let mut p = self.progress.lock().unwrap_or_else(PoisonError::into_inner);
        match event.kind() {
            "iterative_start" => *p = Progress::default(),
            "iteration" => {
                p.round += 1;
                p.samples = u64_field(event, "samples").unwrap_or(p.samples);
                p.best_observed = f64_field(event, "best_observed").or(p.best_observed);
                p.estimated_optimal = f64_field(event, "estimated_optimal").or(p.estimated_optimal);
                p.gap = f64_field(event, "gap").or(p.gap);
                if let Some(m) = str_field(event, "method") {
                    p.method = Some(m.to_string());
                }
            }
            "degradation" => p.degradations += 1,
            "iterative_done" => {
                if let Some(stop) = str_field(event, "stop") {
                    p.stop = Some(stop.to_string());
                }
            }
            _ => {}
        }
    }
}

impl Recorder for TelemetryHub {
    fn record(&self, event: &Event) {
        self.digest(event);
        let mut ring = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= RING_CAP {
            ring.pop_front();
        }
        ring.push_back(event.to_json());
    }
}

fn u64_field(event: &Event, key: &str) -> Option<u64> {
    match event.field(key) {
        Some(Value::U64(v)) => Some(*v),
        _ => None,
    }
}

fn f64_field(event: &Event, key: &str) -> Option<f64> {
    match event.field(key) {
        Some(Value::F64(v)) => Some(*v),
        Some(Value::U64(v)) => Some(*v as f64),
        Some(Value::I64(v)) => Some(*v as f64),
        _ => None,
    }
}

fn str_field<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    match event.field(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// `,"key":1.5` — non-finite and absent values render as `null`,
/// matching the journal encoder's float policy.
fn push_opt_f64(out: &mut String, key: &str, value: Option<f64>) {
    match value {
        Some(v) if v.is_finite() => {
            let _ = write!(out, ",\"{key}\":{v}");
        }
        _ => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

/// `,"key":"pot"` — method and stop names are static identifiers, so a
/// plain quote (no escaping) is sufficient; absent renders as `null`.
fn push_opt_str(out: &mut String, key: &str, value: Option<&str>) {
    match value {
        Some(s) => {
            let _ = write!(out, ",\"{key}\":\"{s}\"");
        }
        None => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;

    #[test]
    fn progress_digest_tracks_the_latest_round_and_stop() {
        let hub = TelemetryHub::new();
        assert_eq!(
            hub.progress_json(),
            "{\"round\":0,\"samples\":0,\"best_observed\":null,\
             \"estimated_optimal\":null,\"gap\":null,\"method\":null,\
             \"stop\":null,\"degradations\":0}"
        );
        hub.record(&Event::new("iterative_start").with("n_init", 200u64));
        hub.record(
            &Event::new("iteration")
                .with("samples", 200u64)
                .with("best_observed", 41.5)
                .with("estimated_optimal", 50.0)
                .with("gap", 0.17)
                .with("method", "pot"),
        );
        hub.record(&Event::new("degradation").with("what", "measurement_retried"));
        hub.record(
            &Event::new("iteration")
                .with("samples", 300u64)
                .with("best_observed", 45.0)
                .with("estimated_optimal", 50.5)
                .with("gap", 0.05)
                .with("method", "pot"),
        );
        let v = Json::parse(&hub.progress_json()).expect("valid json");
        assert_eq!(v.get("round").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("samples").and_then(Json::as_u64), Some(300));
        assert_eq!(v.get("gap").and_then(Json::as_f64), Some(0.05));
        assert_eq!(v.get("stop"), Some(&Json::Null));
        assert_eq!(v.get("degradations").and_then(Json::as_u64), Some(1));

        hub.record(&Event::new("iterative_done").with("stop", "target_met"));
        let v = Json::parse(&hub.progress_json()).expect("valid json");
        assert_eq!(v.get("stop").and_then(Json::as_str), Some("target_met"));

        // A new campaign resets the digest.
        hub.record(&Event::new("iterative_start").with("n_init", 200u64));
        let v = Json::parse(&hub.progress_json()).expect("valid json");
        assert_eq!(v.get("round").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("stop"), Some(&Json::Null));
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let hub = TelemetryHub::new();
        for i in 0..(RING_CAP as u64 + 10) {
            hub.record(&Event::new("tick").with("i", i));
        }
        let events = hub.recent_events();
        assert_eq!(events.len(), RING_CAP);
        assert_eq!(events[0], "{\"kind\":\"tick\",\"i\":10}");
    }

    #[test]
    fn trace_json_filters_span_events_from_the_ring() {
        let hub = TelemetryHub::new();
        hub.record(
            &Event::new("progress")
                .with("stage", "x")
                .with("message", "y"),
        );
        hub.record(
            &Event::new("span")
                .with("name", "iter_round_ns")
                .with("id", 1u64)
                .with("parent", 0u64)
                .with("lane", 0u64)
                .with("start_ns", 1_000u64)
                .with("end_ns", 3_000u64),
        );
        let json = hub.trace_json();
        assert!(json.contains("\"name\":\"iter_round_ns\""), "{json}");
        assert!(json.contains("\"ts\":1.000,\"dur\":2.000"), "{json}");
        assert!(!json.contains("stage"), "{json}");
    }
}
