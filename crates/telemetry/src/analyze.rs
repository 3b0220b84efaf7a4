//! Streaming trace analysis: one pass over a JSONL trace of any length,
//! memory bounded by the number of concurrently open servers.
//!
//! [`TraceAnalyzer`] consumes one line (or decoded [`TraceEvent`]) at a
//! time and maintains:
//!
//! - per-event-type counts, plus a count of *unknown* variants (a trace
//!   written by a newer binary is analyzed, never crashed on);
//! - the set of currently open bins (the only state proportional to
//!   cluster size — everything else is counters and bounded series);
//! - an invariant timeline — the robust / at-risk / violated state with
//!   one entry per *transition*, capped with an explicit drop count;
//! - a violation heatmap bucketed by op window and bin group;
//! - a fragmentation-over-time series sampled from soak checkpoints.
//!
//! The op clock counts mutation events (arrivals, departures, failure
//! events) and re-synchronizes on every `SoakCheckpoint`, so traces from
//! `cubefit churn` (no checkpoints) still get meaningful x-axes.

use crate::trace::TraceEvent;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;

/// Timeline entries kept before further transitions are only counted.
/// A healthy run transitions a handful of times; a flapping run that
/// exceeds this is reported via `timeline_dropped` rather than by
/// growing without bound.
const TIMELINE_CAP: usize = 10_000;

/// Shape of the trace analyzer's bucketing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalyzeConfig {
    /// Width of one heatmap column in mutation ops.
    pub op_window: u64,
    /// Width of one heatmap row in bin indices.
    pub bin_group: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig { op_window: 10_000, bin_group: 8 }
    }
}

/// Robustness state of the placement as seen by the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InvariantState {
    Robust,
    AtRisk,
    Violated,
}

impl InvariantState {
    fn name(self) -> &'static str {
        match self {
            InvariantState::Robust => "robust",
            InvariantState::AtRisk => "at-risk",
            InvariantState::Violated => "violated",
        }
    }
}

/// One invariant-state transition.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TimelinePoint {
    /// Op index the transition was observed at.
    pub op: u64,
    /// New state: `robust`, `at-risk`, or `violated`.
    pub state: String,
}

/// One heatmap cell: violations seen in an (op window × bin group) tile.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HeatmapCell {
    /// First op of the window.
    pub op_start: u64,
    /// First bin of the group.
    pub bin_start: usize,
    /// Violations observed in the tile.
    pub count: u64,
}

/// One fragmentation sample (taken from a `SoakCheckpoint`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FragPoint {
    /// Op index of the checkpoint.
    pub op: u64,
    /// Live tenants at the checkpoint.
    pub tenants: usize,
    /// Non-empty bins at the checkpoint.
    pub open_bins: usize,
    /// Wasted capacity fraction across open bins.
    pub fragmentation: f64,
}

/// Everything the single pass distilled from the trace.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct TraceReport {
    /// Lines consumed (including malformed ones).
    pub total_lines: u64,
    /// Decoded events by variant name.
    pub events: BTreeMap<String, u64>,
    /// Unknown variant tags skipped, by tag (forward compatibility).
    pub skipped: BTreeMap<String, u64>,
    /// Lines that were not single-tag JSON objects at all.
    pub malformed_lines: u64,
    /// An unparseable final line with no trailing newline: the writer was
    /// cut off mid-record (crash, Ctrl-C, full disk). Counted separately
    /// from `malformed_lines` because a truncated tail is an expected
    /// artifact of interruption, not trace corruption — it does not break
    /// [`TraceReport::is_clean`].
    pub truncated_tail: u64,
    /// Final op-clock value.
    pub final_op: u64,
    /// Open bins when the trace ended.
    pub open_bins_final: usize,
    /// High-water mark of concurrently open bins.
    pub max_open_bins: usize,
    /// Invariant-state transitions, oldest first.
    pub timeline: Vec<TimelinePoint>,
    /// Transitions past the timeline's 10,000-entry cap that were counted
    /// but not kept.
    pub timeline_dropped: u64,
    /// Total `InvariantViolated` events.
    pub violations_total: u64,
    /// Violation heatmap tiles, sorted by (op window, bin group).
    pub heatmap: Vec<HeatmapCell>,
    /// Fragmentation-over-time samples from soak checkpoints.
    pub fragmentation: Vec<FragPoint>,
    /// Sampled + full audits seen.
    pub audits: u64,
    /// Audits that reported at least one divergence.
    pub audit_failures: u64,
    /// Divergences summed over all audits.
    pub divergences_total: u64,
    /// Whether the trace ended with a full (final-state) audit that was
    /// clean. `None` when no full audit appears in the trace.
    pub final_audit_clean: Option<bool>,
}

impl TraceReport {
    /// Whether the trace shows a healthy run: no invariant violations, no
    /// audit divergences, and nothing unparseable.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
            && self.divergences_total == 0
            && self.malformed_lines == 0
            && self.final_audit_clean != Some(false)
    }

    /// Human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} lines, {} event kinds, {} unknown-variant lines skipped, \
             {} malformed\n",
            self.total_lines,
            self.events.len(),
            self.skipped.values().sum::<u64>(),
            self.malformed_lines,
        ));
        if self.truncated_tail > 0 {
            out.push_str("note: final line truncated mid-record (writer was interrupted)\n");
        }
        out.push_str("events:\n");
        for (name, count) in &self.events {
            out.push_str(&format!("  {name:<20} {count}\n"));
        }
        if !self.skipped.is_empty() {
            out.push_str("skipped (unknown variants):\n");
            for (name, count) in &self.skipped {
                out.push_str(&format!("  {name:<20} {count}\n"));
            }
        }
        out.push_str(&format!(
            "ops: {} — open bins {} (peak {})\n",
            self.final_op, self.open_bins_final, self.max_open_bins,
        ));
        out.push_str(&format!(
            "invariant: {} violations, {} transitions{}\n",
            self.violations_total,
            self.timeline.len(),
            if self.timeline_dropped > 0 {
                format!(" ({} dropped past cap)", self.timeline_dropped)
            } else {
                String::new()
            },
        ));
        for point in self.timeline.iter().take(20) {
            out.push_str(&format!("  op {:>10}  -> {}\n", point.op, point.state));
        }
        if self.timeline.len() > 20 {
            out.push_str(&format!("  … {} more transitions\n", self.timeline.len() - 20));
        }
        if !self.heatmap.is_empty() {
            out.push_str("violation heatmap (op window × bin group):\n");
            for cell in self.heatmap.iter().take(40) {
                out.push_str(&format!(
                    "  ops {:>10}+  bins {:>5}+  {}\n",
                    cell.op_start, cell.bin_start, cell.count
                ));
            }
            if self.heatmap.len() > 40 {
                out.push_str(&format!("  … {} more tiles\n", self.heatmap.len() - 40));
            }
        }
        if !self.fragmentation.is_empty() {
            let first = &self.fragmentation[0];
            let last = &self.fragmentation[self.fragmentation.len() - 1];
            out.push_str(&format!(
                "fragmentation: {} samples, {:.4} @ op {} -> {:.4} @ op {}\n",
                self.fragmentation.len(),
                first.fragmentation,
                first.op,
                last.fragmentation,
                last.op,
            ));
        }
        out.push_str(&format!(
            "audits: {} ({} failed, {} divergences total{})\n",
            self.audits,
            self.audit_failures,
            self.divergences_total,
            match self.final_audit_clean {
                Some(true) => "; final full audit clean",
                Some(false) => "; FINAL FULL AUDIT FAILED",
                None => "",
            },
        ));
        out.push_str(&format!(
            "verdict: {}\n",
            if self.is_clean() { "CLEAN" } else { "NOT CLEAN" }
        ));
        out
    }
}

/// Single-pass, bounded-memory trace analyzer. Feed lines (or events),
/// then call [`TraceAnalyzer::finish`].
#[derive(Debug, Default)]
pub struct TraceAnalyzer {
    config: AnalyzeConfig,
    report: TraceReport,
    open_bins: BTreeSet<usize>,
    heat: BTreeMap<(u64, usize), u64>,
    state: Option<InvariantState>,
    op: u64,
}

impl TraceAnalyzer {
    /// An analyzer with default bucketing.
    #[must_use]
    pub fn new() -> Self {
        TraceAnalyzer::with_config(AnalyzeConfig::default())
    }

    /// An analyzer with explicit bucketing.
    #[must_use]
    pub fn with_config(config: AnalyzeConfig) -> Self {
        TraceAnalyzer {
            config,
            report: TraceReport::default(),
            open_bins: BTreeSet::new(),
            heat: BTreeMap::new(),
            state: None,
            op: 0,
        }
    }

    /// Consumes one JSONL line. Unknown variants are counted and skipped;
    /// anything else unparseable increments `malformed_lines`. Never
    /// panics on foreign input.
    pub fn push_line(&mut self, line: &str) {
        self.report.total_lines += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            self.report.malformed_lines += 1;
            return;
        }
        match serde_json::from_str::<TraceEvent>(trimmed) {
            Ok(event) => self.push_event(&event),
            Err(_) => match serde_json::from_str::<Value>(trimmed) {
                // An externally tagged event from a newer writer: a JSON
                // object with exactly one key naming the variant.
                Ok(Value::Object(map)) if map.len() == 1 => {
                    let tag = map.iter().next().map(|(k, _)| k.clone()).unwrap_or_default();
                    *self.report.skipped.entry(tag).or_insert(0) += 1;
                }
                _ => self.report.malformed_lines += 1,
            },
        }
    }

    /// Consumes the final line of a stream that ended WITHOUT a trailing
    /// newline. A parseable record is processed normally; an unparseable
    /// one is counted as a truncated tail — the writer was interrupted
    /// mid-record — rather than as trace corruption.
    pub fn push_tail_line(&mut self, line: &str) {
        let before = self.report.malformed_lines;
        self.push_line(line);
        if self.report.malformed_lines > before {
            self.report.malformed_lines = before;
            self.report.truncated_tail += 1;
        }
    }

    /// Consumes one already-decoded event.
    pub fn push_event(&mut self, event: &TraceEvent) {
        *self.report.events.entry(event.variant_name().to_owned()).or_insert(0) += 1;
        match event {
            TraceEvent::TenantArrived { .. }
            | TraceEvent::TenantDeparted { .. }
            | TraceEvent::ServersFailed { .. } => self.op += 1,
            _ => {}
        }
        match event {
            TraceEvent::BinOpened { bin, .. } => {
                self.open_bins.insert(*bin);
                self.report.max_open_bins = self.report.max_open_bins.max(self.open_bins.len());
            }
            TraceEvent::BinClosed { bin, .. } | TraceEvent::ServerClosed { bin, .. } => {
                self.open_bins.remove(bin);
            }
            TraceEvent::ServersFailed { bins, .. } => {
                for bin in bins {
                    self.open_bins.remove(bin);
                }
            }
            TraceEvent::RobustnessChecked { robust, .. } => {
                let state = if *robust { InvariantState::Robust } else { InvariantState::Violated };
                self.transition(state);
            }
            TraceEvent::InvariantViolated { bin, .. } => {
                self.report.violations_total += 1;
                let tile = (
                    self.op / self.config.op_window * self.config.op_window,
                    bin / self.config.bin_group.max(1) * self.config.bin_group.max(1),
                );
                *self.heat.entry(tile).or_insert(0) += 1;
                self.transition(InvariantState::Violated);
            }
            TraceEvent::SoakCheckpoint {
                op,
                tenants,
                open_bins,
                fragmentation,
                at_risk,
                violated,
            } => {
                self.op = *op;
                self.report.fragmentation.push(FragPoint {
                    op: *op,
                    tenants: *tenants,
                    open_bins: *open_bins,
                    fragmentation: *fragmentation,
                });
                let state = if *violated > 0 {
                    InvariantState::Violated
                } else if *at_risk > 0 {
                    InvariantState::AtRisk
                } else {
                    InvariantState::Robust
                };
                self.transition(state);
            }
            TraceEvent::AuditCompleted { op, divergences, full } => {
                self.op = self.op.max(*op);
                self.report.audits += 1;
                self.report.divergences_total += *divergences as u64;
                if *divergences > 0 {
                    self.report.audit_failures += 1;
                }
                if *full {
                    self.report.final_audit_clean = Some(*divergences == 0);
                }
            }
            _ => {}
        }
    }

    fn transition(&mut self, state: InvariantState) {
        if self.state == Some(state) {
            return;
        }
        self.state = Some(state);
        if self.report.timeline.len() < TIMELINE_CAP {
            self.report
                .timeline
                .push(TimelinePoint { op: self.op, state: state.name().to_owned() });
        } else {
            self.report.timeline_dropped += 1;
        }
    }

    /// Finalizes the pass.
    #[must_use]
    pub fn finish(mut self) -> TraceReport {
        self.report.final_op = self.op;
        self.report.open_bins_final = self.open_bins.len();
        self.report.heatmap = self
            .heat
            .into_iter()
            .map(|((op_start, bin_start), count)| HeatmapCell { op_start, bin_start, count })
            .collect();
        self.report
    }
}

/// Analyzes an entire JSONL stream line by line (the `cubefit analyze`
/// entry point — the reader is never buffered whole).
pub fn analyze_reader<R: BufRead>(
    mut reader: R,
    config: AnalyzeConfig,
) -> Result<TraceReport, String> {
    let mut analyzer = TraceAnalyzer::with_config(config);
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| format!("trace read failed: {e}"))?;
        if read == 0 {
            break;
        }
        if line.ends_with('\n') {
            line.pop();
            if line.ends_with('\r') {
                line.pop();
            }
            analyzer.push_line(&line);
        } else {
            // Final line with no newline: the writer was cut off. Treat
            // an unparseable record as truncation, not corruption.
            analyzer.push_tail_line(&line);
        }
    }
    Ok(analyzer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &TraceEvent) -> String {
        serde_json::to_string(event).unwrap()
    }

    #[test]
    fn counts_events_and_tracks_open_bins() {
        let mut analyzer = TraceAnalyzer::new();
        analyzer.push_line(&line(&TraceEvent::BinOpened { bin: 0, class: Some(1), total_open: 1 }));
        analyzer.push_line(&line(&TraceEvent::BinOpened { bin: 1, class: None, total_open: 2 }));
        analyzer.push_line(&line(&TraceEvent::TenantArrived { tenant: 1, load: 0.5, seq: 0 }));
        analyzer.push_line(&line(&TraceEvent::ServersFailed { bins: vec![0], orphaned: 1 }));
        let report = analyzer.finish();
        assert_eq!(report.total_lines, 4);
        assert_eq!(report.events["BinOpened"], 2);
        assert_eq!(report.max_open_bins, 2);
        assert_eq!(report.open_bins_final, 1);
        assert_eq!(report.final_op, 2); // arrival + failure event
        assert!(report.is_clean());
    }

    #[test]
    fn unknown_variants_are_skipped_with_a_count_never_a_crash() {
        let mut analyzer = TraceAnalyzer::new();
        analyzer.push_line(r#"{"QuantumEntangled":{"tenant":5,"qubits":3}}"#);
        analyzer.push_line(r#"{"QuantumEntangled":{"tenant":6,"qubits":1}}"#);
        // A variant older traces carry but the enum no longer has.
        analyzer.push_line(
            r#"{"RecoveryReplayed":{"checkpoint_seq":500,"frames_replayed":37,"torn_tail":true}}"#,
        );
        analyzer.push_line("not json at all");
        analyzer.push_line(r#"{"two":"keys","not":"an event"}"#);
        analyzer.push_line(&line(&TraceEvent::BinClosed { bin: 2, level: 0.5 }));
        let report = analyzer.finish();
        assert_eq!(report.skipped["QuantumEntangled"], 2);
        assert_eq!(report.skipped["RecoveryReplayed"], 1);
        assert_eq!(report.malformed_lines, 2);
        assert_eq!(report.events["BinClosed"], 1);
    }

    #[test]
    fn invariant_timeline_records_transitions_only() {
        let mut analyzer = TraceAnalyzer::new();
        for violated in [0usize, 0, 1, 1, 0] {
            analyzer.push_event(&TraceEvent::SoakCheckpoint {
                op: 100,
                tenants: 10,
                open_bins: 4,
                fragmentation: 0.1,
                at_risk: 0,
                violated,
            });
        }
        let report = analyzer.finish();
        let states: Vec<&str> = report.timeline.iter().map(|p| p.state.as_str()).collect();
        assert_eq!(states, ["robust", "violated", "robust"]);
    }

    #[test]
    fn violations_land_in_heatmap_tiles() {
        let mut analyzer =
            TraceAnalyzer::with_config(AnalyzeConfig { op_window: 10, bin_group: 4 });
        // Push the op clock to 12 (window starting at 10).
        for seq in 0..12 {
            analyzer.push_event(&TraceEvent::TenantArrived { tenant: seq, load: 0.1, seq });
        }
        analyzer.push_event(&TraceEvent::InvariantViolated { bin: 5, level: 0.9, deficit: 0.1 });
        analyzer.push_event(&TraceEvent::InvariantViolated { bin: 6, level: 0.9, deficit: 0.1 });
        analyzer.push_event(&TraceEvent::InvariantViolated { bin: 9, level: 0.9, deficit: 0.1 });
        let report = analyzer.finish();
        assert_eq!(report.violations_total, 3);
        assert_eq!(
            report.heatmap,
            vec![
                HeatmapCell { op_start: 10, bin_start: 4, count: 2 },
                HeatmapCell { op_start: 10, bin_start: 8, count: 1 },
            ]
        );
        assert!(!report.is_clean());
    }

    #[test]
    fn audits_roll_up_and_final_full_audit_sets_verdict() {
        let mut analyzer = TraceAnalyzer::new();
        analyzer.push_event(&TraceEvent::AuditCompleted { op: 50, divergences: 0, full: false });
        analyzer.push_event(&TraceEvent::AuditCompleted { op: 100, divergences: 2, full: false });
        analyzer.push_event(&TraceEvent::AuditCompleted { op: 150, divergences: 0, full: true });
        let report = analyzer.finish();
        assert_eq!(report.audits, 3);
        assert_eq!(report.audit_failures, 1);
        assert_eq!(report.divergences_total, 2);
        assert_eq!(report.final_audit_clean, Some(true));
        assert_eq!(report.final_op, 150);
    }

    #[test]
    fn report_serializes_and_renders() {
        let mut analyzer = TraceAnalyzer::new();
        for event in crate::trace::tests::sample_events() {
            analyzer.push_line(&line(&event));
        }
        let report = analyzer.finish();
        let text = serde_json::to_string(&report).unwrap();
        let back: TraceReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        let rendered = report.render();
        assert!(rendered.contains("events:"));
        assert!(rendered.contains("verdict:"));
    }

    #[test]
    fn analyze_reader_streams_lines() {
        let mut text = String::new();
        for event in crate::trace::tests::sample_events() {
            text.push_str(&line(&event));
            text.push('\n');
        }
        let report = analyze_reader(text.as_bytes(), AnalyzeConfig::default()).unwrap();
        assert_eq!(report.total_lines, crate::trace::tests::sample_events().len() as u64);
        assert_eq!(report.malformed_lines, 0);
        assert_eq!(report.truncated_tail, 0);
    }

    /// Regression: a writer killed mid-record (Ctrl-C, crash, full disk)
    /// leaves a final line with no trailing newline. `analyze` must count
    /// it as a truncated tail — skipped, still CLEAN — not error out or
    /// grade the trace corrupt.
    #[test]
    fn truncated_final_line_is_skipped_not_malformed() {
        let mut text = String::new();
        for event in crate::trace::tests::sample_events() {
            text.push_str(&line(&event));
            text.push('\n');
        }
        // Cut the valid trace mid-way through its last record.
        let cut = text.trim_end().len() - 17;
        let truncated = &text[..cut];
        assert!(!truncated.ends_with('\n'));

        let full = analyze_reader(text.as_bytes(), AnalyzeConfig::default()).unwrap();
        let report = analyze_reader(truncated.as_bytes(), AnalyzeConfig::default()).unwrap();
        assert_eq!(report.truncated_tail, 1);
        assert_eq!(report.malformed_lines, 0);
        assert_eq!(report.total_lines, full.total_lines);
        assert_eq!(
            report.is_clean(),
            full.is_clean(),
            "a truncated tail must not change the cleanliness verdict"
        );
        assert!(report.render().contains("truncated"), "render surfaces the truncation");
    }

    /// A final line without a newline that still parses is a normal
    /// record — flushed but not newline-terminated before the cut.
    #[test]
    fn complete_final_line_without_newline_still_counts() {
        let text = format!(
            "{}\n{}",
            line(&TraceEvent::TenantArrived { tenant: 1, load: 0.5, seq: 0 }),
            line(&TraceEvent::TenantArrived { tenant: 2, load: 0.25, seq: 1 }),
        );
        let report = analyze_reader(text.as_bytes(), AnalyzeConfig::default()).unwrap();
        assert_eq!(report.events["TenantArrived"], 2);
        assert_eq!(report.truncated_tail, 0);
        assert_eq!(report.malformed_lines, 0);
    }
}
