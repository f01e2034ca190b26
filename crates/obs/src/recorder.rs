//! Event sinks: the [`Recorder`] trait and its built-in implementations.
//!
//! Recorders must never fail the pipeline: I/O errors are counted and
//! swallowed ([`JsonlRecorder::io_errors`] exposes the tally), and every
//! implementation is `Send + Sync` so one recorder can serve all worker
//! threads.

use crate::event::Event;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// An event sink. The default implementation of every method is a no-op,
/// so recorders only implement what they need.
pub trait Recorder: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &Event);

    /// Flushes buffered output, if any.
    fn flush(&self) {}

    /// I/O failures swallowed so far (zero for recorders that cannot
    /// fail). [`crate::Obs`] reads this to surface silent journal loss
    /// as the `obs_recorder_io_errors_total` counter and a final
    /// `recorder_io_errors` warning event.
    fn io_errors(&self) -> u64 {
        0
    }
}

/// The default recorder: discards everything.
///
/// An [`crate::Obs`] built over a `NullRecorder` still aggregates
/// metrics; use [`crate::Obs::disabled`] to turn observation off
/// entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &Event) {}
}

/// In-memory recorder for tests: keeps each event's JSONL line.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    lines: Mutex<Vec<String>>,
}

impl MemoryRecorder {
    /// The recorded JSONL lines, in arrival order.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: &Event) {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.to_json());
    }
}

/// `Arc<R>` of any recorder forwards, so a sink can be shared between
/// `Obs` and an out-of-band reader (tests keep a handle on a
/// [`MemoryRecorder`], a `--serve` endpoint on its [`crate::TelemetryHub`]).
impl<R: Recorder> Recorder for Arc<R> {
    fn record(&self, event: &Event) {
        self.as_ref().record(event);
    }

    fn flush(&self) {
        self.as_ref().flush();
    }

    fn io_errors(&self) -> u64 {
        self.as_ref().io_errors()
    }
}

/// Streams events as JSON Lines to any writer (typically a buffered
/// file). Write errors increment a counter and are otherwise swallowed —
/// observability must never fail the observed pipeline.
#[derive(Debug)]
pub struct JsonlRecorder<W: Write + Send> {
    writer: Mutex<W>,
    io_errors: AtomicU64,
}

impl JsonlRecorder<BufWriter<File>> {
    /// Creates (truncating) a journal file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure — the one moment where an
    /// unusable journal should be loud, before any pipeline work ran.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlRecorder {
            writer: Mutex::new(writer),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Write/flush failures swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if w.write_all(line.as_bytes()).is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if w.flush().is_err() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn io_errors(&self) -> u64 {
        JsonlRecorder::io_errors(self)
    }
}

/// Renders `progress` events to stderr for humans and ignores everything
/// else — the obs-backed replacement for ad-hoc `eprintln!` reporting.
///
/// A `progress` event carries a `stage` and a `message` field; anything
/// missing renders as an empty string.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrProgress;

impl Recorder for StderrProgress {
    fn record(&self, event: &Event) {
        if event.kind() != "progress" {
            return;
        }
        let text = |key: &str| match event.field(key) {
            Some(crate::event::Value::Str(s)) => s.clone(),
            Some(v) => format!("{v:?}"),
            None => String::new(),
        };
        eprintln!("[{}] {}", text("stage"), text("message"));
    }
}

/// Fans every event out to two recorders (compose for more).
pub struct Tee(pub Box<dyn Recorder>, pub Box<dyn Recorder>);

impl Recorder for Tee {
    fn record(&self, event: &Event) {
        self.0.record(event);
        self.1.record(event);
    }

    fn flush(&self) {
        self.0.flush();
        self.1.flush();
    }

    fn io_errors(&self) -> u64 {
        self.0.io_errors().saturating_add(self.1.io_errors())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_keeps_lines_in_order() {
        let r = MemoryRecorder::default();
        assert!(r.is_empty());
        r.record(&Event::new("a"));
        r.record(&Event::new("b").with("x", 1u64));
        assert_eq!(r.len(), 2);
        assert_eq!(r.lines(), vec![r#"{"kind":"a"}"#, r#"{"kind":"b","x":1}"#]);
    }

    #[test]
    fn jsonl_recorder_writes_newline_terminated_json() {
        let recorder = JsonlRecorder::new(Vec::new());
        recorder.record(&Event::new("e1").with("n", 1u64));
        recorder.record(&Event::new("e2"));
        recorder.flush();
        let bytes = recorder
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(text, "{\"kind\":\"e1\",\"n\":1}\n{\"kind\":\"e2\"}\n");
        assert_eq!(recorder.io_errors(), 0);
    }

    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn io_errors_are_counted_not_propagated() {
        let recorder = JsonlRecorder::new(FailingWriter);
        recorder.record(&Event::new("x"));
        recorder.flush();
        assert_eq!(recorder.io_errors(), 2);
    }

    #[test]
    fn tee_duplicates_events() {
        let a = Arc::new(MemoryRecorder::default());
        let b = Arc::new(MemoryRecorder::default());
        let tee = Tee(Box::new(Arc::clone(&a)), Box::new(Arc::clone(&b)));
        tee.record(&Event::new("dup"));
        tee.flush();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
