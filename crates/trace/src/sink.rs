//! Trace sinks: where emitted events go.

use crate::TraceEvent;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;

/// A consumer of trace events.
///
/// `record` runs inside the engine's sequential commit path under the
/// tracer's lock — implementations must not block on anything slower than
/// buffered I/O, and must not panic on I/O failure (telemetry is
/// best-effort; a full disk must not kill a run).
pub trait TraceSink: Send {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes buffered output (end of run, or an explicit dump point).
    fn flush(&mut self) {}
}

/// A cloneable in-memory collector for tests and controllers. Clones share
/// the same buffer, so a handle kept outside the engine sees everything the
/// attached sink recorded.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().push(*event);
    }
}

/// A JSONL writer: one JSON object per line, the archival trace format
/// consumed by the `trace_report` bin. Write errors are swallowed after the
/// first (telemetry must never fail a run); `create` still fails eagerly so
/// an unwritable path surfaces as a configuration error at build time.
pub struct JsonlWriter {
    out: Option<std::io::BufWriter<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for JsonlWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlWriter")
            .field("open", &self.out.is_some())
            .finish()
    }
}

impl JsonlWriter {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (tests, in-memory buffers).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: Some(std::io::BufWriter::new(out)),
        }
    }
}

impl TraceSink for JsonlWriter {
    fn record(&mut self, event: &TraceEvent) {
        if let Some(out) = &mut self.out {
            let line = serde::json::to_string(event);
            if writeln!(out, "{line}").is_err() {
                // First failure wedges the sink: no point retrying a full
                // disk once per event.
                self.out = None;
            }
        }
    }

    fn flush(&mut self) {
        if let Some(out) = &mut self.out {
            let _ = out.flush();
        }
    }
}

/// The bounded ring shared by [`FlightRecorder`] handles.
#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    cap_events: usize,
}

/// A byte-bounded flight-recorder ring buffer: always cheap, always on.
///
/// The ring retains the most recent events whose total in-memory size never
/// exceeds the configured byte bound (at least one event, so a tiny bound
/// still captures the crash site). Events are heapless, so the bound is
/// exactly `capacity_events × size_of::<TraceEvent>()`. Clones share the
/// ring; keep one handle outside the engine to [`FlightRecorder::dump`] the
/// tail after a run (the [`crate::Tracer`] does this automatically on panic
/// or protocol violation via its internal ring).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Arc<Mutex<Ring>>,
}

impl FlightRecorder {
    /// A ring holding as many events as fit in `bytes` (floor of one).
    pub fn with_byte_bound(bytes: usize) -> Self {
        let cap_events = (bytes / std::mem::size_of::<TraceEvent>()).max(1);
        Self {
            ring: Arc::new(Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap_events.min(1024)),
                cap_events,
            })),
        }
    }

    /// Maximum number of events the ring retains.
    pub fn capacity_events(&self) -> usize {
        self.ring.lock().cap_events
    }

    /// Bytes currently held (`len × size_of::<TraceEvent>()`).
    pub fn bytes_used(&self) -> usize {
        self.ring.lock().buf.len() * std::mem::size_of::<TraceEvent>()
    }

    /// The retained tail, oldest first.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.ring.lock().buf.iter().copied().collect()
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, event: &TraceEvent) {
        let mut ring = self.ring.lock();
        if ring.buf.len() == ring.cap_events {
            ring.buf.pop_front();
        }
        ring.buf.push_back(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchClass, KillReason};
    use proptest::prelude::*;

    fn ev(i: u64) -> TraceEvent {
        // A deterministic mix of variants keyed by `i`.
        match i % 4 {
            0 => TraceEvent::Train {
                t_ns: i,
                node: (i % 7) as u32,
                round: (i % 5) as u32,
                compute_ns: i * 3,
            },
            1 => TraceEvent::MsgKill {
                t_ns: i,
                node: (i % 7) as u32,
                count: i,
                reason: KillReason::RepairEdge,
            },
            2 => TraceEvent::ExecuteBatch {
                t_ns: i,
                class: BatchClass::Train,
                round: (i % 5) as u32,
                width: 3,
                queue_depth: 9,
                wall_start_ns: i,
                propose_ns: 1,
                execute_ns: 2,
                commit_ns: 3,
            },
            _ => TraceEvent::RoundComplete {
                t_ns: i,
                round: (i % 5) as u32,
            },
        }
    }

    #[test]
    fn memory_sink_clones_share_the_buffer() {
        let handle = MemorySink::new();
        let mut attached = handle.clone();
        attached.record(&ev(0));
        attached.record(&ev(1));
        assert_eq!(handle.len(), 2);
        assert_eq!(handle.events()[0], ev(0));
        assert!(!handle.is_empty());
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_event() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlWriter::from_writer(Box::new(Shared(Arc::clone(&buf))));
        for i in 0..4 {
            sink.record(&ev(i));
        }
        sink.flush();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for (i, line) in lines.iter().enumerate() {
            let back: TraceEvent = serde::json::from_str(line).expect("line parses");
            assert_eq!(back, ev(i as u64));
        }
    }

    #[test]
    fn flight_recorder_keeps_the_tail() {
        let bound = 10 * std::mem::size_of::<TraceEvent>();
        let handle = FlightRecorder::with_byte_bound(bound);
        assert_eq!(handle.capacity_events(), 10);
        let mut attached = handle.clone();
        for i in 0..25u64 {
            attached.record(&ev(i));
        }
        let tail = handle.dump();
        assert_eq!(tail.len(), 10);
        assert_eq!(tail[0], ev(15), "oldest retained event");
        assert_eq!(tail[9], ev(24), "newest event");
    }

    #[test]
    fn tiny_byte_bound_still_holds_one_event() {
        let mut rec = FlightRecorder::with_byte_bound(0);
        assert_eq!(rec.capacity_events(), 1);
        rec.record(&ev(1));
        rec.record(&ev(2));
        assert_eq!(rec.dump(), vec![ev(2)]);
    }

    proptest! {
        #[test]
        fn ring_never_exceeds_its_byte_bound(
            bound in 0usize..4096,
            stream in proptest::collection::vec(0u64..1000, 0..200),
        ) {
            let handle = FlightRecorder::with_byte_bound(bound);
            let mut attached = handle.clone();
            let effective = bound.max(std::mem::size_of::<TraceEvent>());
            for (k, &i) in stream.iter().enumerate() {
                attached.record(&ev(i));
                prop_assert!(handle.bytes_used() <= effective);
                let expect = (k + 1).min(handle.capacity_events());
                prop_assert_eq!(handle.dump().len(), expect);
            }
            // The retained tail is exactly the stream's suffix.
            let tail = handle.dump();
            let suffix: Vec<TraceEvent> = stream
                .iter()
                .skip(stream.len().saturating_sub(handle.capacity_events()))
                .map(|&i| ev(i))
                .collect();
            prop_assert_eq!(tail, suffix);
        }
    }
}
