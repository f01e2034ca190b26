//! Deterministic observability: metrics, spans, and a structured event
//! journal for the optassign pipeline.
//!
//! The iterative algorithm (paper §5.3) and the resilient estimation
//! ladder succeed or fail based on runtime behavior the numeric results
//! alone cannot show: how long measurements take per worker slot, how
//! often faults force retries and redraws, which fallback rung an
//! estimate landed on, and how the best-in-sample converges toward the
//! UPB. This crate makes all of that visible under one non-negotiable
//! contract:
//!
//! > **Observation never perturbs results.** With any [`Recorder`]
//! > attached, every pipeline output is bit-identical to the unobserved
//! > run, at every worker count.
//!
//! Three design rules enforce the contract:
//!
//! 1. **No feedback.** Nothing in the pipeline ever branches on recorded
//!    state; instrumentation only appends to it.
//! 2. **Clock abstraction.** Wall time is read through the [`Clock`]
//!    trait ([`MonotonicClock`] in production, [`FakeClock`] in tests),
//!    so `Instant::now` never reaches computation code, and timing can
//!    be made fully deterministic under test.
//! 3. **Order-fixed aggregation.** Metric values are integers wherever
//!    parallel workers contribute (u64 counters, u64-valued histograms),
//!    so accumulation is exact and commutative; float gauges are only
//!    written from sequential orchestration code, and
//!    [`MetricsRegistry::merge_from`] lets per-worker local registries
//!    merge in a fixed (spawn) order.
//!
//! The crate is dependency-free (`std` only) and panic-free outside
//! tests; recording failures (e.g. a full disk under a JSONL journal)
//! are counted and swallowed, never propagated into the pipeline.
//!
//! # Quickstart
//!
//! ```
//! use optassign_obs::{Event, MemoryRecorder, MonotonicClock, Obs};
//!
//! let obs = Obs::new(
//!     Box::new(MemoryRecorder::default()),
//!     Box::new(MonotonicClock::new()),
//! );
//! obs.counter_add("measurements_total", 3);
//! {
//!     let _span = obs.span("fit_ns");
//!     // ... timed work ...
//! }
//! obs.record(Event::new("estimate").with("method", "profile-mle"));
//! let snapshot = obs.metrics();
//! assert_eq!(snapshot.counter("measurements_total"), 3);
//! assert!(snapshot.to_prometheus().contains("measurements_total 3"));
//! ```

pub mod clock;
pub mod context;
pub mod event;
pub mod export;
pub mod hub;
pub mod journal;
pub mod metrics;
pub mod recorder;
pub mod stitch;
pub mod trace;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use context::{TraceContext, TRACE_HEADER};
pub use event::{json_string, Event, Value};
pub use export::labeled;
pub use hub::TelemetryHub;
pub use journal::Json;
pub use metrics::{Histogram, MetricsRegistry, LATENCY_BUCKETS_NS, VALUE_BUCKETS};
pub use recorder::{JsonlRecorder, MemoryRecorder, NullRecorder, Recorder, StderrProgress, Tee};
pub use trace::TraceSpan;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Canonical counter names of the distributed campaign fabric, shared by
/// the core leased-slot path, the fleet coordinator/worker, and their
/// dashboards, so every layer increments (and every scrape reads) the
/// same series.
pub mod fleet_counters {
    /// Leased slots that reached the model (cold evaluations).
    pub const SLOT_EVALS: &str = "fleet_slot_evals_total";
    /// Leased slots served from a federated peer cache.
    pub const PEER_HITS: &str = "fleet_peer_hits_total";
    /// Slot-range leases the coordinator dispatched.
    pub const LEASES_ISSUED: &str = "fleet_leases_issued_total";
    /// Leases whose worker missed the deadline.
    pub const LEASES_EXPIRED: &str = "fleet_leases_expired_total";
    /// Slot ranges re-leased after a worker died or expired.
    pub const LEASES_REASSIGNED: &str = "fleet_leases_reassigned_total";
    /// Workers the coordinator declared dead during a campaign.
    pub const WORKERS_LOST: &str = "fleet_workers_lost_total";
}

/// Derives a deterministic span id for an auxiliary lane under `parent`
/// (e.g. one worker of a parallel region). FNV-1a over the pair, with
/// the high bit forced so lane ids can never collide with the sequential
/// ids the orchestration counter hands out.
#[must_use]
pub const fn lane_span_id(parent: u64, lane: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= parent;
    h = h.wrapping_mul(0x0000_0100_0000_01B3);
    h ^= lane;
    h = h.wrapping_mul(0x0000_0100_0000_01B3);
    h | (1 << 63)
}

/// Shared observability handle: a metrics registry, an event recorder,
/// and a clock, bundled behind one cheaply clonable façade.
///
/// The [`Obs::disabled`] handle carries no state at all — every call on
/// it is a branch on `None` and nothing else — so library code can
/// thread an `&Obs` unconditionally and pay (almost) nothing when
/// nobody is watching.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

struct ObsInner {
    metrics: Mutex<MetricsRegistry>,
    recorder: Box<dyn Recorder>,
    clock: Box<dyn Clock>,
    /// Open-span stack and id counter. Spans are only opened from
    /// sequential orchestration code (parallel regions get derived lane
    /// ids instead — see [`lane_span_id`]), so the allocation order, and
    /// with it every span id, is identical at every worker count.
    spans: Mutex<SpanStack>,
    /// Whether finished spans are mirrored to the journal as `span`
    /// events (off by default; see [`Obs::enable_span_events`]).
    span_events: AtomicBool,
    /// High-water mark of recorder I/O errors already reported through a
    /// `recorder_io_errors` warning event.
    io_errors_reported: AtomicU64,
    /// Sequence counter behind [`Obs::next_client_span_id`]. Unlike the
    /// orchestration span counter this one may be bumped from any thread:
    /// rpc span ids are opaque (only their uniqueness and their linkage
    /// through the `x-oast-trace` header matter), so a timing-dependent
    /// allocation order perturbs nothing.
    rpc_seq: AtomicU64,
}

#[derive(Default)]
struct SpanStack {
    next_id: u64,
    open: Vec<u64>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Obs {
    /// The inert handle: records nothing, reads no clock.
    #[must_use]
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An observing handle with the given recorder and clock.
    #[must_use]
    pub fn new(recorder: Box<dyn Recorder>, clock: Box<dyn Clock>) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                metrics: Mutex::new(MetricsRegistry::default()),
                recorder,
                clock,
                spans: Mutex::new(SpanStack::default()),
                span_events: AtomicBool::new(false),
                io_errors_reported: AtomicU64::new(0),
                rpc_seq: AtomicU64::new(0),
            })),
        }
    }

    /// Turns on span tracing: every finished [`SpanGuard`] additionally
    /// records a `span` journal event carrying its deterministic id,
    /// parent id, lane, and start/end clock readings. Off by default so
    /// existing journals keep their exact shape; tracing obeys the
    /// never-perturbs contract either way (span ids are allocated
    /// whether or not events are emitted).
    pub fn enable_span_events(&self) {
        if let Some(inner) = &self.inner {
            inner.span_events.store(true, Ordering::Relaxed);
        }
    }

    /// Whether finished spans are mirrored to the journal.
    #[must_use]
    pub fn span_events_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.span_events.load(Ordering::Relaxed))
    }

    /// Metrics-only handle: a real clock and registry, no event journal.
    #[must_use]
    pub fn metrics_only() -> Self {
        Self::new(Box::new(NullRecorder), Box::new(MonotonicClock::new()))
    }

    /// Whether this handle observes anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Sends one structured event to the recorder. No-op when disabled.
    pub fn record(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(&event);
        }
    }

    /// Builds and records an event only when the handle is enabled —
    /// use for events whose construction is not free.
    pub fn emit<F: FnOnce() -> Event>(&self, build: F) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(&build());
        }
    }

    /// Current clock reading in nanoseconds; `0` when disabled.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.metrics).counter_add(name, delta);
        }
    }

    /// Sets the named gauge. Gauges are last-write-wins and must only be
    /// written from sequential (orchestration) code — see the module
    /// docs' order-fixed aggregation rule.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            lock(&inner.metrics).gauge_set(name, value);
        }
    }

    /// Records one observation into the named histogram with the default
    /// latency buckets.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            lock(&inner.metrics).observe(name, value);
        }
    }

    /// Records one observation into the named histogram with explicit
    /// bucket bounds (used on first touch of the name).
    pub fn observe_with(&self, name: &str, value: u64, bounds: &[u64]) {
        if let Some(inner) = &self.inner {
            lock(&inner.metrics).observe_with(name, value, bounds);
        }
    }

    /// Merges a worker-local registry into the shared one. Call in a
    /// fixed order (e.g. worker spawn order) after a parallel region.
    pub fn merge_metrics(&self, local: &MetricsRegistry) {
        if let Some(inner) = &self.inner {
            lock(&inner.metrics).merge_from(local);
        }
    }

    /// A snapshot (clone) of the current metrics registry.
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner
            .as_ref()
            .map_or_else(MetricsRegistry::default, |i| lock(&i.metrics).clone())
    }

    /// Starts a span that records its elapsed time into the histogram
    /// `name` when dropped (or when [`SpanGuard::finish`] is called).
    ///
    /// Spans are hierarchical: each one gets a deterministic id from a
    /// sequential counter and remembers the innermost span still open at
    /// its creation as its parent. Open spans from orchestration code
    /// only (one thread at a time) — parallel regions report per-worker
    /// lanes through derived ids (see [`lane_span_id`]) instead of
    /// opening guards inside workers.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let (id, parent) = match &self.inner {
            None => (0, 0),
            Some(inner) => {
                let mut stack = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
                stack.next_id += 1;
                let id = stack.next_id;
                let parent = stack.open.last().copied().unwrap_or(0);
                stack.open.push(id);
                (id, parent)
            }
        };
        SpanGuard {
            obs: self,
            name,
            start_ns: self.now_ns(),
            done: false,
            id,
            parent,
        }
    }

    /// Records one already-timed span as a `span` journal event without
    /// opening a guard — how parallel regions report per-worker lanes
    /// with deterministic, schedule-independent ids. No-op unless
    /// [`Obs::enable_span_events`] was called.
    pub fn record_lane_span(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        lane: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.span_events_enabled() {
            self.record(span_event(name, id, parent, lane, start_ns, end_ns));
        }
    }

    /// Allocates the client-side span id for the next outbound traced
    /// call of `ctx`'s trace. Ids come from a per-process sequence fed
    /// through an FNV hash (see [`TraceContext::client_span_id`]); `0`
    /// on a disabled handle.
    #[must_use]
    pub fn next_client_span_id(&self, ctx: &TraceContext) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => ctx.client_span_id(inner.rpc_seq.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Records the client side of one traced RPC as an `rpc_client`
    /// journal event: the call to `path` was sent at `send_ns`, answered
    /// with `status` at `recv_ns`, carried span id `id` (from
    /// [`Obs::next_client_span_id`]) and hung under `ctx.parent_span_id`
    /// locally. No-op unless span events are enabled, so journal shapes
    /// are unchanged when tracing is off.
    pub fn record_rpc_client(
        &self,
        path: &str,
        status: u16,
        ctx: &TraceContext,
        id: u64,
        send_ns: u64,
        recv_ns: u64,
    ) {
        if self.span_events_enabled() {
            self.record(
                Event::new("rpc_client")
                    .with("path", path.to_string())
                    .with("status", u64::from(status))
                    .with("trace", ctx.trace_id)
                    .with("id", id)
                    .with("parent", ctx.parent_span_id)
                    .with("send_ns", send_ns)
                    .with("recv_ns", recv_ns),
            );
        }
    }

    /// Records the server side of one traced RPC as an `rpc_server`
    /// journal event: the request to `path` carrying remote context
    /// `ctx` arrived at `recv_ns` and was answered with `status` at
    /// `send_ns`. The span id is derived as
    /// [`TraceContext::server_span_id`], and `ctx.parent_span_id` is
    /// journaled as `remote_parent` — the link [`stitch`] pairs with the
    /// matching `rpc_client` event. No-op unless span events are enabled.
    pub fn record_rpc_server(
        &self,
        path: &str,
        status: u16,
        ctx: &TraceContext,
        recv_ns: u64,
        send_ns: u64,
    ) {
        if self.span_events_enabled() {
            self.record(
                Event::new("rpc_server")
                    .with("path", path.to_string())
                    .with("status", u64::from(status))
                    .with("trace", ctx.trace_id)
                    .with("id", ctx.server_span_id())
                    .with("remote_parent", ctx.parent_span_id)
                    .with("recv_ns", recv_ns)
                    .with("send_ns", send_ns),
            );
        }
    }

    /// Records a `metrics_snapshot` event embedding the JSON rendering
    /// of the current registry, then flushes the recorder. Typically the
    /// last call of a binary's run.
    ///
    /// Recorder write failures swallowed so far surface here as the
    /// `obs_recorder_io_errors_total` counter, so silent journal loss is
    /// visible in the snapshot itself (and in the Prometheus sidecar)
    /// without polling [`JsonlRecorder::io_errors`].
    pub fn record_metrics_snapshot(&self) {
        if let Some(inner) = &self.inner {
            let io_errors = inner.recorder.io_errors();
            let json = {
                let mut metrics = lock(&inner.metrics);
                if io_errors > 0 {
                    let seen = metrics.counter("obs_recorder_io_errors_total");
                    metrics.counter_add(
                        "obs_recorder_io_errors_total",
                        io_errors.saturating_sub(seen),
                    );
                }
                metrics.to_json()
            };
            inner
                .recorder
                .record(&Event::new("metrics_snapshot").with_raw_json("metrics", json));
        }
        self.flush();
    }

    /// Flushes the recorder (no-op for recorders without buffering).
    ///
    /// When the recorder has swallowed I/O errors since the last flush, a
    /// final `recorder_io_errors` warning event is recorded first — a
    /// journal that lost lines says so in its own tail.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let io_errors = inner.recorder.io_errors();
            let reported = inner
                .io_errors_reported
                .fetch_max(io_errors, Ordering::Relaxed);
            if io_errors > reported {
                inner.recorder.record(
                    &Event::new("recorder_io_errors")
                        .with("count", io_errors)
                        .with(
                            "message",
                            "journal writes were lost; counts are a lower bound",
                        ),
                );
            }
            inner.recorder.flush();
        }
    }
}

/// Builds the journal rendering of one finished span.
fn span_event(
    name: &'static str,
    id: u64,
    parent: u64,
    lane: u64,
    start_ns: u64,
    end_ns: u64,
) -> Event {
    Event::new("span")
        .with("name", name)
        .with("id", id)
        .with("parent", parent)
        .with("lane", lane)
        .with("start_ns", start_ns)
        .with("end_ns", end_ns)
}

fn lock(m: &Mutex<MetricsRegistry>) -> std::sync::MutexGuard<'_, MetricsRegistry> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII span: measures the time between [`Obs::span`] and drop through
/// the handle's [`Clock`], recording it into a histogram. On a disabled
/// handle the guard does nothing and reads no clock.
///
/// Every guard carries a deterministic span id and the id of the span
/// that was innermost when it opened (`0` for a root span); with
/// [`Obs::enable_span_events`] the finished span is mirrored to the
/// journal, from which [`trace`] reconstructs a Chrome-trace timeline.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    name: &'static str,
    start_ns: u64,
    done: bool,
    id: u64,
    parent: u64,
}

impl SpanGuard<'_> {
    /// Ends the span now and returns the elapsed nanoseconds
    /// (`0` on a disabled handle).
    pub fn finish(mut self) -> u64 {
        self.record()
    }

    /// This span's deterministic id (`0` on a disabled handle).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of the span this one nests under (`0` for a root span).
    #[must_use]
    pub fn parent(&self) -> u64 {
        self.parent
    }

    /// The clock reading when the span opened.
    #[must_use]
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    fn record(&mut self) -> u64 {
        if self.done {
            return 0;
        }
        self.done = true;
        let Some(inner) = &self.obs.inner else {
            return 0;
        };
        {
            let mut stack = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(pos) = stack.open.iter().rposition(|&open| open == self.id) {
                stack.open.remove(pos);
            }
        }
        let end_ns = self.obs.now_ns();
        let elapsed = end_ns.saturating_sub(self.start_ns);
        self.obs.observe(self.name, elapsed);
        if inner.span_events.load(Ordering::Relaxed) {
            inner.recorder.record(&span_event(
                self.name,
                self.id,
                self.parent,
                0,
                self.start_ns,
                end_ns,
            ));
        }
        elapsed
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        obs.counter_add("c", 5);
        obs.observe("h", 10);
        obs.gauge_set("g", 1.5);
        obs.record(Event::new("x"));
        assert_eq!(obs.now_ns(), 0);
        let snap = obs.metrics();
        assert_eq!(snap.counter("c"), 0);
        assert!(snap.is_empty());
    }

    #[test]
    fn fake_clock_spans_land_in_histogram() {
        let clock = Arc::new(FakeClock::new(0));
        let obs = Obs::new(Box::new(NullRecorder), Box::new(Arc::clone(&clock)));
        {
            let span = obs.span("work_ns");
            clock.advance(1_500);
            assert_eq!(span.finish(), 1_500);
        }
        {
            let _span = obs.span("work_ns");
            clock.advance(250_000);
            // drop records
        }
        let snap = obs.metrics();
        let h = snap.histogram("work_ns").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 251_500);
        assert_eq!(h.min(), Some(1_500));
        assert_eq!(h.max(), Some(250_000));
    }

    #[test]
    fn span_finish_is_idempotent_with_drop() {
        let clock = Arc::new(FakeClock::new(7));
        let obs = Obs::new(Box::new(NullRecorder), Box::new(Arc::clone(&clock)));
        let span = obs.span("once_ns");
        clock.advance(10);
        let elapsed = span.finish(); // drop after finish must not double-record
        assert_eq!(elapsed, 10);
        let snap = obs.metrics();
        assert_eq!(snap.histogram("once_ns").map(Histogram::count), Some(1));
    }

    #[test]
    fn events_reach_the_recorder() {
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(FakeClock::new(0)));
        obs.record(Event::new("alpha").with("k", 1u64));
        obs.emit(|| Event::new("beta").with("v", 2.5));
        let lines = rec.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"alpha\""));
        assert!(lines[1].contains("\"kind\":\"beta\""));
    }

    #[test]
    fn snapshot_event_embeds_metrics_json() {
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(FakeClock::new(0)));
        obs.counter_add("n", 4);
        obs.record_metrics_snapshot();
        let lines = rec.lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"kind\":\"metrics_snapshot\""));
        assert!(lines[0].contains("\"n\":4"));
    }

    #[test]
    fn span_ids_and_parents_nest_deterministically() {
        let clock = Arc::new(FakeClock::new(0));
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(Arc::clone(&clock)));
        obs.enable_span_events();
        assert!(obs.span_events_enabled());
        {
            let outer = obs.span("outer_ns");
            assert_eq!(outer.id(), 1);
            assert_eq!(outer.parent(), 0);
            clock.advance(10);
            {
                let inner = obs.span("inner_ns");
                assert_eq!(inner.id(), 2);
                assert_eq!(inner.parent(), 1);
                clock.advance(5);
            }
            let sibling = obs.span("sibling_ns");
            assert_eq!(sibling.id(), 3);
            assert_eq!(sibling.parent(), 1);
        }
        let next = obs.span("next_root_ns");
        assert_eq!(next.id(), 4);
        assert_eq!(next.parent(), 0);
        drop(next);
        let lines = rec.lines();
        // Spans journal at close: inner, sibling, outer, next_root.
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            r#"{"kind":"span","name":"inner_ns","id":2,"parent":1,"lane":0,"start_ns":10,"end_ns":15}"#
        );
        assert!(lines[2].contains("\"name\":\"outer_ns\",\"id\":1,\"parent\":0"));
    }

    #[test]
    fn span_events_are_off_by_default() {
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(FakeClock::new(0)));
        {
            let _span = obs.span("quiet_ns");
        }
        obs.record_lane_span("lane_ns", 7, 1, 2, 0, 5);
        assert!(rec.is_empty(), "no span events without enable_span_events");
        // The histogram still records.
        assert_eq!(
            obs.metrics().histogram("quiet_ns").map(Histogram::count),
            Some(1)
        );
    }

    #[test]
    fn lane_span_ids_are_deterministic_and_disjoint_from_counter_ids() {
        let a = lane_span_id(3, 0);
        assert_eq!(a, lane_span_id(3, 0));
        assert_ne!(a, lane_span_id(3, 1));
        assert_ne!(a, lane_span_id(4, 0));
        // Counter ids are small sequential integers; lane ids keep the
        // high bit set.
        assert!(a >= 1 << 63);
    }

    #[test]
    fn recorder_io_errors_surface_in_snapshot_and_flush_warning() {
        use std::io::Write;
        /// Fails the first write, then recovers — one swallowed line.
        struct FlakyWriter {
            failures_left: u64,
        }
        impl Write for FlakyWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.failures_left > 0 {
                    self.failures_left -= 1;
                    Err(std::io::Error::other("disk full"))
                } else {
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let memory = Arc::new(MemoryRecorder::default());
        let tee = Tee(
            Box::new(Arc::clone(&memory)),
            Box::new(JsonlRecorder::new(FlakyWriter { failures_left: 1 })),
        );
        let obs = Obs::new(Box::new(tee), Box::new(FakeClock::new(0)));
        obs.record(Event::new("lost"));
        obs.record_metrics_snapshot();
        assert_eq!(obs.metrics().counter("obs_recorder_io_errors_total"), 1);
        let lines = memory.lines();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"recorder_io_errors\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"obs_recorder_io_errors_total\":1")));
        // A second flush without new failures must not repeat the warning.
        let warnings = |lines: &[String]| {
            lines
                .iter()
                .filter(|l| l.contains("\"kind\":\"recorder_io_errors\""))
                .count()
        };
        assert_eq!(warnings(&memory.lines()), 1);
        obs.flush();
        assert_eq!(warnings(&memory.lines()), 1);
    }

    #[test]
    fn merge_metrics_accumulates_local_registries() {
        let obs = Obs::metrics_only();
        let mut a = MetricsRegistry::default();
        a.counter_add("tasks", 3);
        a.observe("lat_ns", 100);
        let mut b = MetricsRegistry::default();
        b.counter_add("tasks", 4);
        b.observe("lat_ns", 900);
        obs.merge_metrics(&a);
        obs.merge_metrics(&b);
        let snap = obs.metrics();
        assert_eq!(snap.counter("tasks"), 7);
        assert_eq!(snap.histogram("lat_ns").map(Histogram::count), Some(2));
        assert_eq!(snap.histogram("lat_ns").map(Histogram::sum), Some(1_000));
    }
}
