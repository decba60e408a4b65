//! Chrome trace-event (Perfetto-loadable) export.

use crate::{BatchClass, TraceEvent, TraceSink};
use serde::Value;
use std::io::Write;

/// Exports the engine's propose/execute/commit phase timings as a Chrome
/// trace-event JSON file (`chrome://tracing` / [Perfetto] both load it).
///
/// Each [`TraceEvent::ExecuteBatch`] becomes three complete (`"ph":"X"`)
/// spans on dedicated phase lanes, placed at the batch's wall-clock offset
/// from run start; span names carry the event class and batch width, so
/// singleton batches (the parallelism killer) are visible at a glance.
/// Everything else in the trace stream is ignored — the JSONL sink is the
/// lossless archival format; this one is for eyeballs.
///
/// [Perfetto]: https://ui.perfetto.dev
pub struct ChromeTraceWriter {
    file: Option<std::fs::File>,
    spans: Vec<Value>,
}

impl std::fmt::Debug for ChromeTraceWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChromeTraceWriter")
            .field("spans", &self.spans.len())
            .finish()
    }
}

/// One complete span in trace-event form. Times are microseconds (floats),
/// per the trace-event spec.
fn span(name: String, ts_ns: u64, dur_ns: u64, tid: u64) -> Value {
    Value::Map(vec![
        ("name".into(), Value::Str(name)),
        ("cat".into(), Value::Str("engine".into())),
        ("ph".into(), Value::Str("X".into())),
        ("ts".into(), Value::F64(ts_ns as f64 / 1_000.0)),
        ("dur".into(), Value::F64(dur_ns as f64 / 1_000.0)),
        ("pid".into(), Value::U64(1)),
        ("tid".into(), Value::U64(tid)),
    ])
}

/// A thread-name metadata record labelling one phase lane.
fn lane_name(tid: u64, name: &str) -> Value {
    Value::Map(vec![
        ("name".into(), Value::Str("thread_name".into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::U64(1)),
        ("tid".into(), Value::U64(tid)),
        (
            "args".into(),
            Value::Map(vec![("name".into(), Value::Str(name.into()))]),
        ),
    ])
}

impl ChromeTraceWriter {
    /// Lane ids for the three engine phases.
    const TID_PROPOSE: u64 = 0;
    const TID_EXECUTE: u64 = 1;
    const TID_COMMIT: u64 = 2;

    /// Creates (truncating) the export file at `path`. The JSON is written
    /// on [`TraceSink::flush`], which the tracer calls at end of run.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            file: Some(file),
            spans: vec![
                lane_name(Self::TID_PROPOSE, "propose"),
                lane_name(Self::TID_EXECUTE, "execute"),
                lane_name(Self::TID_COMMIT, "commit"),
            ],
        })
    }

    /// The export document built so far (tests; flush writes the same).
    pub fn document(&self) -> Value {
        Value::Map(vec![
            ("traceEvents".into(), Value::Seq(self.spans.clone())),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }
}

impl TraceSink for ChromeTraceWriter {
    fn record(&mut self, event: &TraceEvent) {
        let TraceEvent::ExecuteBatch {
            class,
            width,
            wall_start_ns,
            propose_ns,
            execute_ns,
            commit_ns,
            ..
        } = *event
        else {
            return;
        };
        let label = match class {
            BatchClass::Train => "train",
            BatchClass::Mix => "mix",
        };
        let name = format!("{label}×{width}");
        self.spans.push(span(
            name.clone(),
            wall_start_ns,
            propose_ns,
            Self::TID_PROPOSE,
        ));
        self.spans.push(span(
            name.clone(),
            wall_start_ns + propose_ns,
            execute_ns,
            Self::TID_EXECUTE,
        ));
        self.spans.push(span(
            name,
            wall_start_ns + propose_ns + execute_ns,
            commit_ns,
            Self::TID_COMMIT,
        ));
    }

    fn flush(&mut self) {
        if let Some(mut file) = self.file.take() {
            let text = serde::json::to_string(&self.document());
            let _ = file.write_all(text.as_bytes());
            let _ = file.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::find_field;

    fn batch(i: u64) -> TraceEvent {
        TraceEvent::ExecuteBatch {
            t_ns: i * 1_000,
            class: if i.is_multiple_of(2) {
                BatchClass::Train
            } else {
                BatchClass::Mix
            },
            round: i as u32,
            width: 4,
            queue_depth: 12,
            wall_start_ns: i * 10_000,
            propose_ns: 100,
            execute_ns: 2_000,
            commit_ns: 50,
        }
    }

    #[test]
    fn export_is_a_valid_loadable_trace() {
        let dir = std::env::temp_dir().join("jwins_trace_chrome_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let mut sink = ChromeTraceWriter::create(&path).unwrap();
        for i in 0..3 {
            sink.record(&batch(i));
            // Non-batch events are ignored without an entry.
            sink.record(&TraceEvent::RoundComplete {
                t_ns: i,
                round: i as u32,
            });
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = serde::json::parse(&text).expect("export is valid JSON");
        let map = doc.as_map().expect("top level is an object");
        let events = find_field(map, "traceEvents")
            .and_then(Value::as_seq)
            .expect("traceEvents array");
        // 3 lane-name metadata records + 3 spans per batch.
        assert_eq!(events.len(), 3 + 3 * 3);
        for entry in events {
            let fields = entry.as_map().expect("span is an object");
            let ph = find_field(fields, "ph").expect("ph present");
            assert!(
                matches!(ph, Value::Str(s) if s == "X" || s == "M"),
                "only complete spans and metadata"
            );
            if matches!(ph, Value::Str(s) if s == "X") {
                for key in ["name", "ts", "dur", "pid", "tid"] {
                    assert!(find_field(fields, key).is_some(), "span field {key}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spans_tile_the_wall_timeline_per_phase() {
        let dir = std::env::temp_dir().join("jwins_trace_chrome_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let mut sink = ChromeTraceWriter::create(&path).unwrap();
        sink.record(&batch(1));
        let doc = sink.document();
        let events = find_field(doc.as_map().unwrap(), "traceEvents")
            .and_then(Value::as_seq)
            .unwrap();
        let xs: Vec<&Value> = events
            .iter()
            .filter(|e| {
                matches!(
                    find_field(e.as_map().unwrap(), "ph"),
                    Some(Value::Str(s)) if s == "X"
                )
            })
            .collect();
        assert_eq!(xs.len(), 3);
        let ts = |v: &Value| match find_field(v.as_map().unwrap(), "ts").unwrap() {
            Value::F64(x) => *x,
            other => panic!("ts should be a float, got {other:?}"),
        };
        // propose at wall start; execute after propose; commit after execute
        // (μs: 10_000 ns = 10 μs etc.).
        assert_eq!(ts(xs[0]), 10.0);
        assert_eq!(ts(xs[1]), 10.1);
        assert_eq!(ts(xs[2]), 12.1);
        std::fs::remove_file(&path).ok();
    }
}
