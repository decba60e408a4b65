//! Structural comparison of two recorded runs.
//!
//! Two traces of the same configuration and seed must be canonically
//! identical — that is the engine's determinism contract. When they are
//! not (a seed/config change, a regression, a determinism break), the
//! interesting fact is not "they differ" but **where they first diverge**
//! and **how the aggregates moved**. [`TraceDiff::compare`] canonicalizes
//! both streams (stripping the wall-clock side channel), finds the first
//! divergent event, and folds both streams through the
//! [`MetricsRegistry`] so the report carries
//! per-kind event-count deltas and summary-metric deltas alongside the
//! divergence context window. The `run_diff` bin in `jwins_bench` is the
//! command-line face of this module.

use crate::MetricsRegistry;
use jwins_trace::{replay, TraceEvent};
use std::collections::BTreeMap;

/// Default number of events shown on each side of a divergence.
pub const DEFAULT_CONTEXT: usize = 3;

/// The structural comparison of two canonicalized event streams.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Index of the first divergent canonical event; `None` when the
    /// streams are identical. A pure length mismatch diverges at the
    /// shorter stream's end.
    pub divergence: Option<usize>,
    /// Canonical event count of stream A.
    pub len_a: usize,
    /// Canonical event count of stream B.
    pub len_b: usize,
    /// Per-event-kind count deltas `(kind, count_a, count_b)`, only kinds
    /// whose counts differ, ordered by kind name.
    pub kind_deltas: Vec<(&'static str, u64, u64)>,
    /// Summary-metric deltas `(metric, value_a, value_b)`, only metrics
    /// whose values differ, in [`MetricsRegistry::summary`] order.
    pub metric_deltas: Vec<(&'static str, f64, f64)>,
    a: Vec<TraceEvent>,
    b: Vec<TraceEvent>,
}

impl TraceDiff {
    /// Compares two event streams canonically.
    pub fn compare(a: &[TraceEvent], b: &[TraceEvent]) -> Self {
        let a = replay::canonicalize(a);
        let b = replay::canonicalize(b);
        let divergence = a
            .iter()
            .zip(&b)
            .position(|(x, y)| x != y)
            .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())));

        let mut kinds: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for event in &a {
            kinds.entry(event.kind_name()).or_default().0 += 1;
        }
        for event in &b {
            kinds.entry(event.kind_name()).or_default().1 += 1;
        }
        let kind_deltas = kinds
            .into_iter()
            .filter(|&(_, (ca, cb))| ca != cb)
            .map(|(kind, (ca, cb))| (kind, ca, cb))
            .collect();

        let summary_a = MetricsRegistry::from_events(crate::DEFAULT_WINDOW_S, &a).summary();
        let summary_b = MetricsRegistry::from_events(crate::DEFAULT_WINDOW_S, &b).summary();
        let metric_deltas = summary_a
            .into_iter()
            .zip(summary_b)
            .filter(|((_, va), (_, vb))| va != vb)
            .map(|((name, va), (_, vb))| (name, va, vb))
            .collect();

        Self {
            divergence,
            len_a: a.len(),
            len_b: b.len(),
            kind_deltas,
            metric_deltas,
            a,
            b,
        }
    }

    /// Whether the two streams are canonically identical.
    pub fn is_identical(&self) -> bool {
        self.divergence.is_none()
    }

    /// A text report: the verdict, the divergence context window
    /// (`context` events on each side, divergent line marked `>`), the
    /// per-kind count deltas and the summary-metric deltas. Deterministic
    /// for deterministic inputs.
    pub fn render(&self, context: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(index) = self.divergence else {
            let _ = writeln!(
                out,
                "traces are canonically identical ({} events)",
                self.len_a
            );
            return out;
        };
        let _ = writeln!(
            out,
            "first divergence at canonical event {index} (A has {} events, B has {})",
            self.len_a, self.len_b
        );
        let window = |out: &mut String, label: &str, events: &[TraceEvent]| {
            let _ = writeln!(out, "--- {label} ---");
            let lo = index.saturating_sub(context);
            let hi = (index + context + 1).min(events.len());
            for (i, event) in events.iter().enumerate().take(hi).skip(lo) {
                let marker = if i == index { '>' } else { ' ' };
                let _ = writeln!(out, "{marker} [{i:>6}] {}", serde::json::to_string(event));
            }
            if index >= events.len() {
                let _ = writeln!(out, "> [{index:>6}] <end of stream>");
            }
        };
        window(&mut out, "A", &self.a);
        window(&mut out, "B", &self.b);
        if !self.kind_deltas.is_empty() {
            out.push_str("event-kind count deltas (A vs B):\n");
            for (kind, ca, cb) in &self.kind_deltas {
                let _ = writeln!(out, "  {kind:<16} {ca:>8} -> {cb:>8}");
            }
        }
        if !self.metric_deltas.is_empty() {
            out.push_str("summary-metric deltas (A vs B):\n");
            for (name, va, vb) in &self.metric_deltas {
                let _ = writeln!(out, "  {name:<22} {va:>14.6} -> {vb:>14.6}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jwins_trace::BatchClass;

    fn stream(seed: u64, bytes: u64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                nodes: 2,
                rounds: 1,
                seed,
            },
            TraceEvent::MsgSend {
                t_ns: 10,
                from: 0,
                to: 1,
                round: 0,
                bytes,
                arrives_ns: 20,
            },
            TraceEvent::ExecuteBatch {
                t_ns: 30,
                class: BatchClass::Mix,
                round: 0,
                width: 2,
                queue_depth: 3,
                wall_start_ns: 999,
                propose_ns: 1,
                execute_ns: 2,
                commit_ns: 3,
            },
            TraceEvent::RunEnd {
                t_ns: 40,
                rounds_run: 1,
                queue_depth_hwm: 3,
            },
        ]
    }

    #[test]
    fn identical_streams_diff_empty_even_with_wall_noise() {
        let a = stream(7, 100);
        let mut b = stream(7, 100);
        // Perturb only the wall-clock side channel: still identical.
        if let TraceEvent::ExecuteBatch { propose_ns, .. } = &mut b[2] {
            *propose_ns = 12345;
        }
        let diff = TraceDiff::compare(&a, &b);
        assert!(diff.is_identical());
        assert!(diff.kind_deltas.is_empty());
        assert!(diff.metric_deltas.is_empty());
        assert!(diff.render(3).contains("canonically identical (4 events)"));
    }

    #[test]
    fn seed_change_diverges_at_the_header() {
        let diff = TraceDiff::compare(&stream(7, 100), &stream(8, 100));
        assert_eq!(diff.divergence, Some(0));
        let report = diff.render(3);
        assert!(report.contains("first divergence at canonical event 0"));
        assert!(report.contains("> [     0]"), "{report}");
    }

    #[test]
    fn payload_change_reports_metric_deltas() {
        let diff = TraceDiff::compare(&stream(7, 100), &stream(7, 164));
        assert_eq!(diff.divergence, Some(1));
        assert!(diff
            .metric_deltas
            .iter()
            .any(|&(name, va, vb)| name == "bytes_sent" && va == 100.0 && vb == 164.0));
        // Same kinds on both sides: no count deltas.
        assert!(diff.kind_deltas.is_empty());
    }

    #[test]
    fn truncation_diverges_at_the_shorter_end() {
        let a = stream(7, 100);
        let b = a[..2].to_vec();
        let diff = TraceDiff::compare(&a, &b);
        assert_eq!(diff.divergence, Some(2));
        assert!(diff
            .kind_deltas
            .iter()
            .any(|&(kind, ca, cb)| kind == "RunEnd" && ca == 1 && cb == 0));
        assert!(diff.render(3).contains("<end of stream>"));
    }
}
