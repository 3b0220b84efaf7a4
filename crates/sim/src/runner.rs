//! Driving an algorithm over a tenant sequence.

use crate::spec::AlgorithmSpec;
use cubefit_core::{validity, Result};
use cubefit_telemetry::{MetricsSnapshot, Recorder, TraceEvent};
use cubefit_workload::TenantSequence;
use std::time::{Duration, Instant};

/// Result of one algorithm run over one tenant sequence.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    /// Algorithm label (from [`AlgorithmSpec::label`]).
    pub algorithm: String,
    /// Tenants placed.
    pub tenants: usize,
    /// Servers used (bins hosting at least one replica).
    pub servers: usize,
    /// Mean server utilization (`total_load / servers`).
    pub utilization: f64,
    /// Total tenant load placed.
    pub total_load: f64,
    /// Wall-clock time spent inside `place` calls ("time to consolidate",
    /// reported alongside Fig. 6 in §V.C).
    pub wall: Duration,
    /// Whether the final placement satisfies the `γ − 1`-failure
    /// robustness condition.
    pub robust: bool,
    /// Metrics collected during the run (empty unless the run was given an
    /// enabled [`Recorder`], see [`run_sequence_with`]).
    pub metrics: MetricsSnapshot,
}

impl RunResult {
    /// Placement throughput in tenants per second (0 for an empty run whose
    /// wall clock never advanced).
    #[must_use]
    pub fn tenants_per_second(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.tenants as f64 / self.wall.as_secs_f64()
        }
    }
}

/// Runs a fresh instance of `spec` over `sequence`, returning placement
/// statistics. Telemetry stays disabled (one dead branch per decision).
///
/// # Errors
///
/// Propagates configuration or placement errors from the algorithm.
pub fn run_sequence(spec: &AlgorithmSpec, sequence: &TenantSequence) -> Result<RunResult> {
    run_sequence_with(spec, sequence, &Recorder::disabled())
}

/// Runs a fresh instance of `spec` over `sequence`, streaming decision
/// events and metrics into `recorder`.
///
/// Besides what the algorithm itself records, the runner contributes a
/// `place_seconds` latency histogram (per-tenant placement time), the final
/// robustness-check outcome as a [`TraceEvent::RobustnessChecked`] event,
/// and `servers` / `tenants_placed` gauges. [`RunResult::metrics`] holds
/// the recorder's final snapshot.
///
/// # Errors
///
/// Propagates configuration or placement errors from the algorithm.
pub fn run_sequence_with(
    spec: &AlgorithmSpec,
    sequence: &TenantSequence,
    recorder: &Recorder,
) -> Result<RunResult> {
    let mut algorithm = spec.build()?;
    algorithm.set_recorder(recorder.clone());
    let label = spec.label();
    let labels = [("algorithm", label.as_str())];
    let place_seconds = recorder.histogram("place_seconds", &labels);
    let timed = recorder.is_enabled();
    let start = Instant::now();
    for tenant in sequence.tenants() {
        if timed {
            let t0 = Instant::now();
            algorithm.place(tenant)?;
            place_seconds.record(t0.elapsed().as_secs_f64());
        } else {
            algorithm.place(tenant)?;
        }
    }
    let wall = start.elapsed();
    let placement = algorithm.placement();
    let stats = placement.stats();
    let report = validity::check(placement);
    recorder.emit(|| TraceEvent::RobustnessChecked {
        robust: report.is_robust(),
        worst_margin: report.worst_margin,
        violations: report.violations.len(),
    });
    recorder.gauge("servers", &labels).set(stats.open_bins as f64);
    recorder.gauge("tenants_placed", &labels).set(stats.tenants as f64);
    Ok(RunResult {
        algorithm: label,
        tenants: stats.tenants,
        servers: stats.open_bins,
        utilization: stats.mean_utilization,
        total_load: stats.total_load,
        wall,
        robust: report.is_robust(),
        metrics: recorder.snapshot(),
    })
}

/// Runs a fresh instance of `spec` over `sequence` through the batch
/// placement API, `batch` tenants per `place_batch` call (`0` means one
/// batch for the whole sequence).
///
/// The resulting placement is identical to [`run_sequence`]'s — batching
/// is a throughput lever, not a decision change — so the statistics
/// differ only in `wall`. Telemetry stays disabled: the batch fast paths
/// are exactly what per-op recording would defeat.
///
/// # Errors
///
/// Propagates configuration or placement errors from the algorithm.
pub fn run_sequence_batched(
    spec: &AlgorithmSpec,
    sequence: &TenantSequence,
    batch: usize,
) -> Result<RunResult> {
    let mut algorithm = spec.build()?;
    let tenants: Vec<_> = sequence.tenants().collect();
    let chunk = if batch == 0 { tenants.len().max(1) } else { batch };
    let start = Instant::now();
    for slice in tenants.chunks(chunk) {
        algorithm.place_batch(slice.to_vec())?;
    }
    let wall = start.elapsed();
    let placement = algorithm.placement();
    let stats = placement.stats();
    let report = validity::check(placement);
    Ok(RunResult {
        algorithm: spec.label(),
        tenants: stats.tenants,
        servers: stats.open_bins,
        utilization: stats.mean_utilization,
        total_load: stats.total_load,
        wall,
        robust: report.is_robust(),
        metrics: MetricsSnapshot::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_workload::{LoadModel, SequenceBuilder};

    fn sequence(n: usize, seed: u64) -> TenantSequence {
        let dist = cubefit_workload::UniformClients::new(1, 15);
        SequenceBuilder::new(dist, LoadModel::normalized(52)).count(n).seed(seed).build()
    }

    #[test]
    fn cubefit_run_is_robust_and_beats_load_bound() {
        let seq = sequence(500, 1);
        let result = run_sequence(&AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, &seq).unwrap();
        assert!(result.robust);
        assert_eq!(result.tenants, 500);
        assert!(result.servers as f64 >= result.total_load);
        assert!(result.utilization > 0.0 && result.utilization <= 1.0);
        assert!(result.tenants_per_second() > 0.0);
    }

    #[test]
    fn cubefit_uses_fewer_servers_than_rfi() {
        // The headline claim (Fig. 6), at small scale.
        let seq = sequence(2000, 2);
        let cubefit =
            run_sequence(&AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, &seq).unwrap();
        let rfi = run_sequence(&AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 }, &seq).unwrap();
        assert!(
            cubefit.servers < rfi.servers,
            "cubefit {} vs rfi {}",
            cubefit.servers,
            rfi.servers
        );
    }

    #[test]
    fn zero_wall_time_yields_zero_throughput() {
        // An empty sequence can finish with a zero-duration wall clock;
        // throughput must be 0, not infinite.
        let seq = sequence(0, 4);
        let mut result =
            run_sequence(&AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, &seq).unwrap();
        result.wall = Duration::ZERO;
        assert_eq!(result.tenants_per_second(), 0.0);
    }

    #[test]
    fn instrumented_run_collects_metrics_and_trace() {
        use cubefit_telemetry::VecSink;
        use std::sync::Arc;

        let seq = sequence(200, 5);
        let spec = AlgorithmSpec::CubeFit { gamma: 2, classes: 10 };
        let sink = Arc::new(VecSink::new());
        let recorder = Recorder::with_sink(Arc::clone(&sink));
        let result = run_sequence_with(&spec, &seq, &recorder).unwrap();

        // Metrics snapshot travels with the result.
        assert_eq!(
            result.metrics.counter("placements", &[("algorithm", "cubefit")]) as usize,
            result.tenants
        );
        let hist = result
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == "place_seconds")
            .expect("runner records placement latency");
        assert_eq!(hist.histogram.count, result.tenants as u64);

        // The trace ends with the robustness verdict, and its BinOpened
        // count equals the servers the result reports.
        let events = sink.events();
        let opened = events.iter().filter(|e| matches!(e, TraceEvent::BinOpened { .. })).count();
        assert_eq!(opened, result.servers);
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RobustnessChecked { robust, .. }) if *robust == result.robust
        ));

        // The plain entry point stays metric-free.
        let plain = run_sequence(&spec, &seq).unwrap();
        assert_eq!(plain.metrics, MetricsSnapshot::default());
        assert_eq!(plain.servers, result.servers);
    }

    #[test]
    fn batched_run_matches_sequential_run() {
        let seq = sequence(400, 6);
        for spec in [
            AlgorithmSpec::CubeFit { gamma: 2, classes: 10 },
            AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 },
        ] {
            let sequential = run_sequence(&spec, &seq).unwrap();
            for batch in [64, 0] {
                let batched = run_sequence_batched(&spec, &seq, batch).unwrap();
                assert_eq!(batched.servers, sequential.servers, "{spec:?} b{batch}");
                assert_eq!(batched.tenants, sequential.tenants);
                assert_eq!(batched.robust, sequential.robust);
                assert_eq!(batched.total_load, sequential.total_load);
            }
        }
    }

    #[test]
    fn identical_seed_identical_result() {
        let seq = sequence(300, 3);
        let a = run_sequence(&AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, &seq).unwrap();
        let b = run_sequence(&AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, &seq).unwrap();
        assert_eq!(a.servers, b.servers);
        assert_eq!(a.total_load, b.total_load);
    }
}
