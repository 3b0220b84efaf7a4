//! Structured placement-decision events and JSONL sinks.

use std::io::Write;
use std::sync::Mutex;

/// One placement decision, with raw identifiers (`u64` tenant ids,
/// `usize` bin/class/slot indices) so this crate stays a leaf.
///
/// Serialized externally tagged, one JSON object per line in a trace
/// file, e.g. `{"BinOpened":{"bin":3,"class":2,"total_open":4}}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TraceEvent {
    /// A tenant entered the consolidator.
    TenantArrived {
        /// Tenant id.
        tenant: u64,
        /// Tenant load in `(0, 1]`.
        load: f64,
        /// Arrival sequence number (0-based).
        seq: u64,
    },
    /// Stage 1 ran the m-fit scan over mature bins.
    MfitOutcome {
        /// Tenant id.
        tenant: u64,
        /// Replica class being placed.
        class: usize,
        /// Mature candidate bins examined before the scan stopped.
        candidates_scanned: usize,
        /// Whether a full `γ`-set of mature bins was found.
        hit: bool,
    },
    /// Stage 2 assigned a replica to a cube slot.
    SlotAssigned {
        /// Tenant id.
        tenant: u64,
        /// Replica class of the slot.
        class: usize,
        /// Replica index `j` — the cube group the slot belongs to.
        level: usize,
        /// Bin that received the replica.
        bin: usize,
        /// Slot index within the bin.
        slot: usize,
    },
    /// A baseline packer scanned for a feasible server for one replica.
    FitAttempt {
        /// Tenant id.
        tenant: u64,
        /// Replica index within the tenant's `γ` set.
        replica: usize,
        /// Candidate servers inspected before the scan stopped.
        scanned: usize,
        /// Whether the scan failed and a fresh server was opened instead.
        opened_new: bool,
    },
    /// A bin received its first replica (count of these events equals the
    /// number of servers a run reports).
    BinOpened {
        /// The bin.
        bin: usize,
        /// Replica class the bin was built for (`None` for baseline bins
        /// without a class).
        class: Option<usize>,
        /// Non-empty bins after this open.
        total_open: usize,
    },
    /// A bin was closed to further placements (bounded-space packers
    /// advancing their window, or a simulated server taken offline).
    BinClosed {
        /// The bin.
        bin: usize,
        /// Bin load level at close time.
        level: f64,
    },
    /// A robustness check ran over a placement.
    RobustnessChecked {
        /// Whether the placement survives `γ−1` failures.
        robust: bool,
        /// Worst slack margin across bins (negative = violation).
        worst_margin: f64,
        /// Number of violating bins.
        violations: usize,
    },
    /// A tenant departed, releasing its `γ` replicas.
    TenantDeparted {
        /// Tenant id.
        tenant: u64,
        /// Full tenant load released.
        load: f64,
    },
    /// A set of servers failed simultaneously (a churn-harness event).
    ServersFailed {
        /// The failed bins.
        bins: Vec<usize>,
        /// Replicas orphaned by the failure.
        orphaned: usize,
    },
    /// Recovery re-homed one orphaned replica.
    ReplicaMigrated {
        /// Tenant id.
        tenant: u64,
        /// Failed bin the replica left.
        from: usize,
        /// Surviving (or fresh) bin that received it.
        to: usize,
        /// Replica load moved.
        load: f64,
    },
    /// Recovery after one failure event completed.
    RecoveryCompleted {
        /// Replicas migrated off failed servers.
        replicas_migrated: usize,
        /// Total replica load moved.
        moved_load: f64,
        /// Fresh bins opened during recovery.
        bins_opened: usize,
    },
    /// A defragmentation plan was computed over a live placement.
    DefragPlanned {
        /// Replica moves in the plan.
        steps: usize,
        /// Total replica load the plan moves.
        moved_load: f64,
        /// Bins the plan drains to empty (candidates for closing).
        bins_to_close: usize,
        /// Open bins at planning time.
        open_bins: usize,
    },
    /// A drained server was closed by a defragmentation pass (its last
    /// replica migrated away).
    ServerClosed {
        /// The emptied bin.
        bin: usize,
        /// Bin load level before the drain began.
        level: f64,
        /// Non-empty bins remaining after the close.
        total_open: usize,
    },
    /// Rental blocks were billed as simulated time advanced (emitted
    /// only on advances that billed at least one new block).
    RentAccrued {
        /// Simulated time of the billing advance, in milliseconds.
        now_ms: u64,
        /// Blocks newly billed at this advance.
        blocks: u64,
        /// Servers with active leases after the advance.
        open_servers: usize,
        /// Total rent accrued so far.
        accrued_usd: f64,
    },
    /// A cost-objective defragmentation plan was applied and its
    /// predicted-vs-realized accounting settled against the live ledger.
    EconomicDefragApplied {
        /// Net saving the plan predicted.
        predicted_net_usd: f64,
        /// Net saving realized by the steps that were actually kept.
        realized_net_usd: f64,
        /// Servers the apply drained to empty.
        servers_closed: usize,
        /// Candidate bins the planner skipped as unprofitable.
        skipped_unprofitable: usize,
    },
    /// A tenant's measured load drifted and the placement was re-weighted
    /// in place.
    LoadDrifted {
        /// Tenant id.
        tenant: u64,
        /// Load before the drift step.
        old_load: f64,
        /// Load after the drift step.
        new_load: f64,
        /// Drift-engine logical timestamp of the update.
        at: u64,
    },
    /// The invariant monitor found a server whose Theorem-1 margin is
    /// negative: a `γ−1`-failure set exists that overloads it.
    InvariantViolated {
        /// The violated bin.
        bin: usize,
        /// Bin load level at detection time.
        level: f64,
        /// How far past capacity the worst failure set pushes the bin.
        deficit: f64,
    },
    /// A mitigation plan was computed over the monitor's at-risk and
    /// violated servers.
    MitigationPlanned {
        /// Replica moves in the plan.
        steps: usize,
        /// Total replica load the plan moves.
        moved_load: f64,
        /// Servers the plan restores to a safe margin.
        cured: usize,
        /// Servers left violated or at risk after exhausting the budget.
        residual: usize,
    },
    /// A tenant finished placement.
    Placed {
        /// Tenant id.
        tenant: u64,
        /// Bins hosting the tenant's replicas.
        bins: Vec<usize>,
        /// Which algorithm path placed it (e.g. `MatureFit`, `Cube`).
        stage: String,
        /// Bins newly created for this tenant.
        opened: usize,
    },
    /// Periodic soak-harness checkpoint: a compact summary of live state
    /// so a streaming analyzer can rebuild timelines without replaying
    /// the run.
    SoakCheckpoint {
        /// Mutation-op index the checkpoint was taken at.
        op: u64,
        /// Live tenants.
        tenants: usize,
        /// Non-empty bins.
        open_bins: usize,
        /// Wasted capacity across open bins, `1 − load/open_bins`.
        fragmentation: f64,
        /// Bins within the monitor's at-risk slack band.
        at_risk: usize,
        /// Bins with a negative Theorem-1 margin.
        violated: usize,
    },
    /// A sampled (or final full) oracle audit finished.
    AuditCompleted {
        /// Mutation-op index the audit ran at.
        op: u64,
        /// Structural divergences found (0 = clean).
        divergences: usize,
        /// Whether this was the exhaustive final audit rather than a
        /// sampled mid-run one.
        full: bool,
    },
    /// The placement service turned a request away at admission.
    RequestRejected {
        /// Why: `shed`, `queue_full`, or `deadline`.
        reason: String,
        /// Queue depth at rejection time.
        queue_depth: usize,
        /// Requests executing at rejection time.
        in_flight: usize,
        /// Admission limit at rejection time.
        limit: usize,
    },
    /// The service's degradation ladder moved between audit modes.
    DegradationChanged {
        /// Mode stepped away from (`full`, `sampled`, `off`).
        from: String,
        /// Mode stepped into.
        to: String,
        /// Windowed p99 decision latency that drove the step, ms.
        p99_ms: f64,
        /// Batch sequence number the step happened at.
        batch: u64,
    },
    /// The durability journal took a checkpoint: the placement was
    /// snapshotted atomically and the write-ahead log truncated.
    JournalCheckpoint {
        /// Journal sequence number the checkpoint covers (frames with
        /// `seq ≤` this are no longer needed for recovery).
        seq: u64,
        /// Tenants captured in the checkpoint snapshot.
        tenants: usize,
        /// Bytes of write-ahead log the checkpoint retired.
        wal_bytes: u64,
    },
}

/// Names of every [`TraceEvent`] variant, in declaration order. Paired
/// with [`TraceEvent::variant_name`] so tests can assert exhaustive
/// serde coverage: adding a variant without extending the sample-event
/// list fails CI rather than shipping an unserializable event.
pub const VARIANT_NAMES: &[&str] = &[
    "TenantArrived",
    "MfitOutcome",
    "SlotAssigned",
    "FitAttempt",
    "BinOpened",
    "BinClosed",
    "RobustnessChecked",
    "TenantDeparted",
    "ServersFailed",
    "ReplicaMigrated",
    "RecoveryCompleted",
    "DefragPlanned",
    "ServerClosed",
    "RentAccrued",
    "EconomicDefragApplied",
    "LoadDrifted",
    "InvariantViolated",
    "MitigationPlanned",
    "Placed",
    "SoakCheckpoint",
    "AuditCompleted",
    "RequestRejected",
    "DegradationChanged",
    "JournalCheckpoint",
];

impl TraceEvent {
    /// The externally-tagged variant name this event serializes under.
    ///
    /// The match is exhaustive on purpose: a new variant fails to compile
    /// here until it is named, and the test suite then requires it in
    /// both [`VARIANT_NAMES`] and the round-trip sample set.
    #[must_use]
    pub fn variant_name(&self) -> &'static str {
        match self {
            TraceEvent::TenantArrived { .. } => "TenantArrived",
            TraceEvent::MfitOutcome { .. } => "MfitOutcome",
            TraceEvent::SlotAssigned { .. } => "SlotAssigned",
            TraceEvent::FitAttempt { .. } => "FitAttempt",
            TraceEvent::BinOpened { .. } => "BinOpened",
            TraceEvent::BinClosed { .. } => "BinClosed",
            TraceEvent::RobustnessChecked { .. } => "RobustnessChecked",
            TraceEvent::TenantDeparted { .. } => "TenantDeparted",
            TraceEvent::ServersFailed { .. } => "ServersFailed",
            TraceEvent::ReplicaMigrated { .. } => "ReplicaMigrated",
            TraceEvent::RecoveryCompleted { .. } => "RecoveryCompleted",
            TraceEvent::DefragPlanned { .. } => "DefragPlanned",
            TraceEvent::ServerClosed { .. } => "ServerClosed",
            TraceEvent::RentAccrued { .. } => "RentAccrued",
            TraceEvent::EconomicDefragApplied { .. } => "EconomicDefragApplied",
            TraceEvent::LoadDrifted { .. } => "LoadDrifted",
            TraceEvent::InvariantViolated { .. } => "InvariantViolated",
            TraceEvent::MitigationPlanned { .. } => "MitigationPlanned",
            TraceEvent::Placed { .. } => "Placed",
            TraceEvent::SoakCheckpoint { .. } => "SoakCheckpoint",
            TraceEvent::AuditCompleted { .. } => "AuditCompleted",
            TraceEvent::RequestRejected { .. } => "RequestRejected",
            TraceEvent::DegradationChanged { .. } => "DegradationChanged",
            TraceEvent::JournalCheckpoint { .. } => "JournalCheckpoint",
        }
    }
}

/// Destination for a stream of [`TraceEvent`]s. `Send + Sync` so sinks can
/// sit behind the `Arc` inside a cloned [`crate::Recorder`].
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: &TraceEvent);

    /// Flushes buffered output and reports any I/O error accumulated
    /// since the previous flush (no-op by default). Sinks that cannot
    /// fail `record` mid-placement latch the first error and surface it
    /// here, so a truncated trace cannot pass silently.
    fn flush(&self) -> Result<(), String> {
        Ok(())
    }
}

impl<S: TraceSink + ?Sized> TraceSink for std::sync::Arc<S> {
    fn record(&self, event: &TraceEvent) {
        (**self).record(event);
    }

    fn flush(&self) -> Result<(), String> {
        (**self).flush()
    }
}

/// Writes events as JSON Lines to any `Write` target.
///
/// `record` never panics mid-placement: the first write error is latched
/// and returned by the next [`TraceSink::flush`]. Dropping the sink
/// flushes the writer so short traces are not left sitting in an OS
/// buffer (errors at drop time are unrecoverable and ignored — call
/// `flush` first when the trace matters).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
    error: Mutex<Option<String>>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing one JSON object per line to `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer: Mutex::new(writer), error: Mutex::new(None) }
    }

    fn latch_error(&self, context: &str, err: &std::io::Error) {
        let mut slot = self.error.lock().expect("sink error lock");
        if slot.is_none() {
            *slot = Some(format!("trace sink {context}: {err}"));
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let line = serde_json::to_string(event).expect("trace events serialize");
        let mut writer = self.writer.lock().expect("sink lock");
        if let Err(err) = writeln!(writer, "{line}") {
            drop(writer);
            self.latch_error("write failed", &err);
        }
    }

    fn flush(&self) -> Result<(), String> {
        if let Err(err) = self.writer.lock().expect("sink lock").flush() {
            self.latch_error("flush failed", &err);
        }
        match self.error.lock().expect("sink error lock").take() {
            Some(message) => Err(message),
            None => Ok(()),
        }
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Ok(writer) = self.writer.get_mut() {
            let _ = writer.flush();
        }
    }
}

/// Collects events in memory (tests and programmatic inspection).
#[derive(Default)]
pub struct VecSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    /// A copy of every event recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("sink lock").clone()
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: &TraceEvent) {
        self.events.lock().expect("sink lock").push(event.clone());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Arc;

    /// One instance of **every** `TraceEvent` variant. The exhaustiveness
    /// test below fails if a variant is missing, so serde coverage for a
    /// new event cannot be forgotten.
    pub(crate) fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TenantArrived { tenant: 7, load: 0.25, seq: 0 },
            TraceEvent::MfitOutcome { tenant: 7, class: 3, candidates_scanned: 5, hit: false },
            TraceEvent::SlotAssigned { tenant: 7, class: 3, level: 1, bin: 2, slot: 4 },
            TraceEvent::FitAttempt { tenant: 8, replica: 0, scanned: 12, opened_new: true },
            TraceEvent::BinOpened { bin: 2, class: Some(3), total_open: 3 },
            TraceEvent::BinOpened { bin: 9, class: None, total_open: 4 },
            TraceEvent::BinClosed { bin: 2, level: 0.875 },
            TraceEvent::RobustnessChecked { robust: true, worst_margin: 0.125, violations: 0 },
            TraceEvent::Placed { tenant: 7, bins: vec![2, 5], stage: "Cube".to_owned(), opened: 1 },
            TraceEvent::TenantDeparted { tenant: 7, load: 0.25 },
            TraceEvent::ServersFailed { bins: vec![2, 5], orphaned: 3 },
            TraceEvent::ReplicaMigrated { tenant: 8, from: 2, to: 6, load: 0.125 },
            TraceEvent::RecoveryCompleted {
                replicas_migrated: 3,
                moved_load: 0.375,
                bins_opened: 1,
            },
            TraceEvent::DefragPlanned { steps: 4, moved_load: 0.5, bins_to_close: 2, open_bins: 7 },
            TraceEvent::ServerClosed { bin: 5, level: 0.125, total_open: 6 },
            TraceEvent::RentAccrued {
                now_ms: 3_600_000,
                blocks: 3,
                open_servers: 9,
                accrued_usd: 2.466,
            },
            TraceEvent::EconomicDefragApplied {
                predicted_net_usd: 1.25,
                realized_net_usd: 1.25,
                servers_closed: 2,
                skipped_unprofitable: 3,
            },
            TraceEvent::LoadDrifted { tenant: 8, old_load: 0.25, new_load: 0.375, at: 12 },
            TraceEvent::InvariantViolated { bin: 6, level: 0.75, deficit: 0.0625 },
            TraceEvent::MitigationPlanned { steps: 3, moved_load: 0.25, cured: 2, residual: 1 },
            TraceEvent::SoakCheckpoint {
                op: 1000,
                tenants: 250,
                open_bins: 40,
                fragmentation: 0.125,
                at_risk: 2,
                violated: 0,
            },
            TraceEvent::AuditCompleted { op: 1000, divergences: 0, full: false },
            TraceEvent::RequestRejected {
                reason: "shed".to_owned(),
                queue_depth: 12,
                in_flight: 16,
                limit: 28,
            },
            TraceEvent::DegradationChanged {
                from: "full".to_owned(),
                to: "sampled".to_owned(),
                p99_ms: 137.5,
                batch: 42,
            },
            TraceEvent::JournalCheckpoint { seq: 500, tenants: 240, wal_bytes: 65_536 },
        ]
    }

    #[test]
    fn sample_events_cover_every_variant() {
        let sampled: Vec<&str> = sample_events().iter().map(TraceEvent::variant_name).collect();
        for name in VARIANT_NAMES {
            assert!(
                sampled.contains(name),
                "TraceEvent::{name} has no round-trip sample: add one to sample_events()"
            );
        }
        // And the name list itself cannot drift stale.
        for name in &sampled {
            assert!(VARIANT_NAMES.contains(name), "{name} missing from VARIANT_NAMES");
        }
    }

    #[test]
    fn every_variant_roundtrips_through_jsonl() {
        for event in sample_events() {
            let line = serde_json::to_string(&event).unwrap();
            assert!(!line.contains('\n'));
            assert!(
                line.contains(&format!("\"{}\"", event.variant_name())),
                "externally tagged form should name the variant: {line}"
            );
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(back, event);
        }
    }

    /// A `Write` target the test can still read after the sink (which now
    /// owns a `Drop` impl) goes away.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        for event in sample_events() {
            sink.record(&event);
        }
        assert_eq!(sink.flush(), Ok(()));
        drop(sink);
        let bytes = buf.0.lock().expect("buf lock").clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, event) in lines.iter().zip(sample_events()) {
            let back: TraceEvent = serde_json::from_str(line).unwrap();
            assert_eq!(back, event);
        }
    }

    /// A writer that fails every operation, to exercise the error latch.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors_at_flush() {
        let sink = JsonlSink::new(BrokenWriter);
        sink.record(&TraceEvent::BinClosed { bin: 0, level: 0.5 });
        let err = sink.flush().expect_err("write error must surface");
        assert!(err.contains("disk full"), "unexpected error text: {err}");
        // The latch is consumed: a later flush reports only new failures
        // (here the flush itself still fails).
        let err2 = sink.flush().expect_err("flush error must surface");
        assert!(err2.contains("flush failed"), "unexpected error text: {err2}");
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        struct FlushProbe(Arc<Mutex<bool>>);

        impl Write for FlushProbe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }

            fn flush(&mut self) -> std::io::Result<()> {
                *self.0.lock().expect("probe lock") = true;
                Ok(())
            }
        }

        let flushed = Arc::new(Mutex::new(false));
        let sink = JsonlSink::new(FlushProbe(Arc::clone(&flushed)));
        sink.record(&TraceEvent::BinClosed { bin: 0, level: 0.5 });
        drop(sink);
        assert!(*flushed.lock().expect("probe lock"), "drop must flush the writer");
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let sink = VecSink::new();
        for event in sample_events() {
            sink.record(&event);
        }
        assert_eq!(sink.events(), sample_events());
    }
}
