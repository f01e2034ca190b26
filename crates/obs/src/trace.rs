//! Chrome trace-event export: journal `span` lines → a Perfetto-loadable
//! timeline.
//!
//! Span events are written by [`crate::SpanGuard`] (orchestration spans,
//! lane 0) and [`crate::Obs::record_lane_span`] (per-worker lane spans)
//! when [`crate::Obs::enable_span_events`] is on. This module is the
//! read side: it pulls those lines back out of a JSONL journal and
//! renders the Trace Event Format JSON that `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev) load directly.
//!
//! Rendering is deliberately byte-deterministic for a given journal:
//! timestamps are converted from nanoseconds to microseconds with exact
//! integer arithmetic (`{us}.{ns:03}`), never through `f64`, so golden
//! tests can pin the output and re-exports of the same run diff empty.

use crate::event::push_json_string;
use crate::journal::Json;
use std::fmt::Write as _;

/// One completed span reconstructed from the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Histogram/span name, e.g. `iter_round_ns`.
    pub name: String,
    /// Deterministic span id (sequential for orchestration spans, a
    /// high-bit-set hash for worker lanes — see [`crate::lane_span_id`]).
    pub id: u64,
    /// Id of the span that was innermost when this one opened; `0` for
    /// a root span.
    pub parent: u64,
    /// Worker lane: `0` for orchestration spans, `1 + worker_index` for
    /// per-worker lane spans.
    pub lane: u64,
    /// Clock reading when the span opened, nanoseconds.
    pub start_ns: u64,
    /// Clock reading when the span closed, nanoseconds.
    pub end_ns: u64,
}

/// Extracts completed spans from journal lines, in journal order.
///
/// Returns the spans plus the number of lines that were malformed:
/// unparseable JSON (torn tails from killed runs, interleaved writers)
/// or `span` events missing a required field. Lines that parse as other
/// event kinds are simply skipped and not counted. Blank lines are
/// ignored.
#[must_use]
pub fn spans_from_journal<'a, I>(lines: I) -> (Vec<TraceSpan>, u64)
where
    I: IntoIterator<Item = &'a str>,
{
    let mut spans = Vec::new();
    let mut malformed = 0u64;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let Some(value) = Json::parse(line) else {
            malformed += 1;
            continue;
        };
        if value.kind() != Some("span") {
            continue;
        }
        match span_from_event(&value) {
            Some(span) => spans.push(span),
            None => malformed += 1,
        }
    }
    (spans, malformed)
}

fn span_from_event(value: &Json) -> Option<TraceSpan> {
    let field = |key: &str| value.get(key).and_then(Json::as_u64);
    Some(TraceSpan {
        name: value.get("name").and_then(Json::as_str)?.to_string(),
        id: field("id")?,
        parent: field("parent")?,
        lane: field("lane")?,
        start_ns: field("start_ns")?,
        end_ns: field("end_ns")?,
    })
}

/// Renders spans as Chrome Trace Event Format JSON.
///
/// Each span becomes one complete (`"ph":"X"`) event; `tid` is the lane,
/// so Perfetto draws orchestration spans on track 0 and each worker on
/// its own track. Span ids and parent ids ride along in `args` for
/// lineage inspection in the UI. Timestamps are microseconds with
/// three exact decimal places.
#[must_use]
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, &span.name);
        out.push_str(",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
        push_us(&mut out, span.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, span.end_ns.saturating_sub(span.start_ns));
        let _ = write!(
            out,
            ",\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            span.lane, span.id, span.parent
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// One-call convenience for [`crate::TelemetryHub::trace_json`] and
/// `obs_report --chrome-trace`: journal lines in, `(trace JSON,
/// malformed line count)` out.
#[must_use]
pub fn chrome_trace_from_journal<'a, I>(lines: I) -> (String, u64)
where
    I: IntoIterator<Item = &'a str>,
{
    let (spans, malformed) = spans_from_journal(lines);
    (chrome_trace_json(&spans), malformed)
}

/// Nanoseconds rendered as microseconds with three exact decimals —
/// integer arithmetic only, so output is bit-stable across platforms.
pub(crate) fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FakeClock, MemoryRecorder, Obs};
    use std::sync::Arc;

    fn recorded_span_lines() -> Vec<String> {
        let rec = Arc::new(MemoryRecorder::default());
        let clock = Arc::new(FakeClock::new(0));
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(Arc::clone(&clock)));
        obs.enable_span_events();
        {
            let outer = obs.span("study_run_ns");
            clock.advance(1_500);
            {
                let _inner = obs.span("evt_estimate_ns");
                clock.advance(250);
            }
            clock.advance(10);
            obs.record_lane_span(
                "exec_lane_ns",
                crate::lane_span_id(outer.id(), 0),
                outer.id(),
                1,
                100,
                1_400,
            );
        }
        rec.lines()
    }

    #[test]
    fn journal_round_trips_into_spans() {
        let lines = recorded_span_lines();
        let (spans, malformed) = spans_from_journal(lines.iter().map(String::as_str));
        assert_eq!(malformed, 0);
        // Journal order: inner closes first, then the lane span, then outer.
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "evt_estimate_ns");
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[1].name, "exec_lane_ns");
        assert_eq!(spans[1].lane, 1);
        assert_eq!(spans[1].parent, 1);
        assert!(spans[1].id >= 1 << 63);
        assert_eq!(spans[2].name, "study_run_ns");
        assert_eq!(spans[2].id, 1);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[2].start_ns, 0);
        assert_eq!(spans[2].end_ns, 1_760);
    }

    #[test]
    fn malformed_and_foreign_lines_are_counted_and_skipped() {
        let lines = [
            r#"{"kind":"progress","stage":"x","message":"y"}"#, // foreign: skipped, not counted
            r#"{"kind":"span","name":"a_ns","id":1,"parent":0,"lane":0,"start_ns":0,"end_ns":5}"#,
            r#"{"kind":"span","name":"torn_ns","id":2,"par"#, // torn tail
            r#"{"kind":"span","name":"no_id_ns","parent":0,"lane":0,"start_ns":0,"end_ns":1}"#,
            "",
        ];
        let (spans, malformed) = spans_from_journal(lines);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "a_ns");
        assert_eq!(malformed, 2);
    }

    #[test]
    fn chrome_trace_renders_exact_microseconds() {
        let spans = vec![TraceSpan {
            name: "iter_round_ns".to_string(),
            id: 7,
            parent: 1,
            lane: 0,
            start_ns: 1_234_567,
            end_ns: 2_000_570,
        }];
        let json = chrome_trace_json(&spans);
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"iter_round_ns\",\"cat\":\"span\",\
             \"ph\":\"X\",\"ts\":1234.567,\"dur\":766.003,\"pid\":1,\"tid\":0,\
             \"args\":{\"id\":7,\"parent\":1}}],\"displayTimeUnit\":\"ns\"}"
        );
        // The exporter's own output parses with our journal parser.
        assert!(Json::parse(&json).is_some());
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}"
        );
    }
}
