//! Replaying recorded traces: JSONL parsing and canonicalization.
//!
//! The archival trace format is one JSON object per line (written by
//! [`crate::JsonlWriter`]). Everything downstream of the engine — the
//! metrics registry, the critical-path analyzer, `trace_report`,
//! `run_diff` — consumes either a live sink or a recorded file through the
//! helpers here, so the parse/validate logic exists exactly once.

use crate::TraceEvent;
use std::path::Path;

/// A malformed line in a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFailure {
    /// 1-based line number in the file.
    pub line: usize,
    /// The parser's error rendering.
    pub message: String,
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The outcome of parsing a JSONL trace: every parsable event in stream
/// order, plus the lines that failed to parse (empty for a healthy trace).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedTrace {
    /// Events in stream (commit) order.
    pub events: Vec<TraceEvent>,
    /// Unparsable lines, in file order.
    pub failures: Vec<ParseFailure>,
}

impl ParsedTrace {
    /// Whether every non-empty line parsed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Parses JSONL text into events; blank lines are skipped, malformed lines
/// are collected rather than aborting the parse (a truncated tail must not
/// hide the events before it).
pub fn parse_jsonl(text: &str) -> ParsedTrace {
    let mut parsed = ParsedTrace::default();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde::json::from_str::<TraceEvent>(line) {
            Ok(event) => parsed.events.push(event),
            Err(e) => parsed.failures.push(ParseFailure {
                line: index + 1,
                message: format!("{e:?}"),
            }),
        }
    }
    parsed
}

/// Reads and parses a JSONL trace file.
///
/// # Errors
///
/// Returns the I/O error when the file cannot be read; parse failures are
/// reported per line inside the returned [`ParsedTrace`] instead.
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<ParsedTrace> {
    Ok(parse_jsonl(&std::fs::read_to_string(path)?))
}

/// Canonicalizes a whole stream ([`TraceEvent::canonical`] per event):
/// strips the wall-clock side channel so two streams compare the way
/// `RoundRecord`s do — invariant under thread count and host load.
pub fn canonicalize(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events.iter().map(|e| e.canonical()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchClass;

    #[test]
    fn parse_collects_events_and_failures() {
        let text = "\
{\"RunStart\":{\"nodes\":2,\"rounds\":1,\"seed\":7}}\n\
\n\
not json\n\
{\"RoundComplete\":{\"t_ns\":5,\"round\":0}}\n";
        let parsed = parse_jsonl(text);
        assert_eq!(parsed.events.len(), 2);
        assert!(!parsed.is_clean());
        assert_eq!(parsed.failures.len(), 1);
        assert_eq!(parsed.failures[0].line, 3);
        assert!(parsed.failures[0].to_string().starts_with("line 3:"));
    }

    #[test]
    fn read_round_trips_a_written_file() {
        let events = vec![
            TraceEvent::RunStart {
                nodes: 4,
                rounds: 2,
                seed: 42,
            },
            TraceEvent::ExecuteBatch {
                t_ns: 10,
                class: BatchClass::Train,
                round: 0,
                width: 4,
                queue_depth: 8,
                wall_start_ns: 1,
                propose_ns: 2,
                execute_ns: 3,
                commit_ns: 4,
            },
            TraceEvent::RunEnd {
                t_ns: 20,
                rounds_run: 2,
                queue_depth_hwm: 8,
            },
        ];
        let dir = std::env::temp_dir().join(format!("jwins-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        let mut text = String::new();
        for event in &events {
            text.push_str(&serde::json::to_string(event));
            text.push('\n');
        }
        std::fs::write(&path, text).unwrap();
        let parsed = read_jsonl(&path).unwrap();
        assert!(parsed.is_clean());
        assert_eq!(parsed.events, events);
        // Canonicalization zeroes exactly the batch's wall fields.
        let canon = canonicalize(&parsed.events);
        assert_eq!(canon[0], events[0]);
        assert_ne!(canon[1], events[1]);
        assert_eq!(canon[1], events[1].canonical());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(read_jsonl("/nonexistent-dir-for-sure/trace.jsonl").is_err());
    }
}
