//! Latency recording and percentile reports.
//!
//! Recording is backed by the workspace-wide log-bucketed
//! [`Histogram`]: constant memory regardless
//! of simulation length, exact count/sum/min/max, and quantiles within
//! ≈2.2% relative error — far inside the slack of every latency assertion
//! in the DES (the SLA threshold itself is a 5 s cliff).

use cubefit_telemetry::{Histogram, HistogramSnapshot};

/// Collects per-server query latencies during the measurement window and
/// produces percentile summaries.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    overall: Histogram,
    /// Per-server histograms, indexed by server.
    per_server: Vec<Histogram>,
    recording: bool,
}

impl LatencyRecorder {
    /// Creates a recorder (initially not recording — warm-up).
    #[must_use]
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Starts recording (end of warm-up).
    pub fn start(&mut self) {
        self.recording = true;
    }

    /// Stops recording.
    pub fn stop(&mut self) {
        self.recording = false;
    }

    /// Records one latency measured on `server` if recording is active.
    pub fn record(&mut self, server: usize, latency: f64) {
        if self.recording {
            self.overall.record(latency);
            if server >= self.per_server.len() {
                self.per_server.resize_with(server + 1, Histogram::new);
            }
            self.per_server[server].record(latency);
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.overall.count() as usize
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.overall.count() == 0
    }

    /// Finalizes into a cluster report.
    #[must_use]
    pub fn finish(self) -> ClusterReport {
        ClusterReport {
            overall: LatencyReport::from_histogram(self.overall),
            per_server: self.per_server.into_iter().map(LatencyReport::from_histogram).collect(),
        }
    }
}

/// Latency percentiles for a whole measurement window: cluster-wide and
/// per server.
///
/// The paper's SLA is *per server* (§IV: a server's capacity must keep the
/// p99 within 5 s), so Fig. 5-style experiments read
/// [`Self::worst_server_p99`]; cluster-wide percentiles are also exposed
/// for context.
#[derive(Debug, Clone, Default)]
pub struct ClusterReport {
    /// Percentiles over every query in the cluster.
    pub overall: LatencyReport,
    /// Percentiles per server (empty reports for idle servers).
    pub per_server: Vec<LatencyReport>,
}

impl ClusterReport {
    /// The highest per-server p99 — the SLA-relevant latency.
    #[must_use]
    pub fn worst_server_p99(&self) -> f64 {
        self.per_server.iter().map(LatencyReport::p99).fold(0.0, f64::max)
    }

    /// The server with the highest p99, if any samples exist.
    #[must_use]
    pub fn hottest_server(&self) -> Option<usize> {
        self.per_server
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_empty())
            .max_by(|a, b| a.1.p99().total_cmp(&b.1.p99()))
            .map(|(i, _)| i)
    }

    /// Cluster-wide p99 (shorthand for `overall.p99()`).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.overall.p99()
    }

    /// Cluster-wide mean (shorthand for `overall.mean()`).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Whether no samples were recorded anywhere.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.overall.is_empty()
    }

    /// Whether any server's p99 exceeds the SLA (the paper's violation
    /// criterion).
    #[must_use]
    pub fn violates_sla(&self, sla_seconds: f64) -> bool {
        self.worst_server_p99() > sla_seconds
    }
}

/// Latency distribution with percentile accessors, backed by a
/// log-bucketed histogram (quantiles within ≈2.2% relative error;
/// count/sum/min/max exact).
#[derive(Debug, Clone, Default)]
pub struct LatencyReport {
    histogram: Histogram,
}

impl LatencyReport {
    /// Builds a report from raw samples.
    #[must_use]
    pub fn from_samples(samples: Vec<f64>) -> Self {
        let histogram = Histogram::new();
        for sample in samples {
            histogram.record(sample);
        }
        LatencyReport { histogram }
    }

    /// Builds a report from an already-populated histogram.
    #[must_use]
    pub fn from_histogram(histogram: Histogram) -> Self {
        LatencyReport { histogram }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.histogram.count() as usize
    }

    /// Whether the report is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.histogram.count() == 0
    }

    /// A serializable snapshot of the underlying histogram.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.histogram.snapshot()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method;
    /// 0 for empty reports.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.histogram.quantile(q)
    }

    /// Median latency.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile latency.
    #[must_use]
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile latency — the paper's SLA metric.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Maximum latency (exact).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.histogram.max()
    }

    /// Mean latency (exact).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.histogram.mean()
    }

    /// Whether the p99 exceeds the given SLA.
    #[must_use]
    pub fn violates_sla(&self, sla_seconds: f64) -> bool {
        self.p99() > sla_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_ignores_warmup() {
        let mut r = LatencyRecorder::new();
        r.record(0, 100.0); // warm-up, dropped
        r.start();
        r.record(0, 1.0);
        r.record(1, 2.0);
        r.stop();
        r.record(0, 200.0); // after stop, dropped
        assert_eq!(r.len(), 2);
        let report = r.finish();
        assert_eq!(report.overall.len(), 2);
        assert!((report.mean() - 1.5).abs() < 1e-12);
        assert_eq!(report.per_server.len(), 2);
        assert_eq!(report.per_server[0].len(), 1);
    }

    #[test]
    fn cluster_report_worst_server() {
        let mut r = LatencyRecorder::new();
        r.start();
        for _ in 0..100 {
            r.record(0, 1.0);
        }
        for _ in 0..100 {
            r.record(2, 6.0);
        }
        let report = r.finish();
        // Server 2 violates alone; the cluster-wide p99 sees it too here,
        // but the SLA criterion is the per-server worst.
        assert_eq!(report.hottest_server(), Some(2));
        assert!((report.worst_server_p99() - 6.0).abs() < 1e-12);
        assert!(report.violates_sla(5.0));
        assert!(!report.per_server[1].is_empty() || report.per_server[1].is_empty());
    }

    #[test]
    fn empty_cluster_report() {
        let report = LatencyRecorder::new().finish();
        assert!(report.is_empty());
        assert_eq!(report.worst_server_p99(), 0.0);
        assert_eq!(report.hottest_server(), None);
        assert!(!report.violates_sla(5.0));
    }

    #[test]
    fn percentiles_nearest_rank() {
        // Histogram-backed quantiles carry ≤2.2% relative bucket error;
        // min/max are tracked exactly.
        let report = LatencyReport::from_samples((1..=100).map(f64::from).collect());
        let approx = |got: f64, exact: f64| (got - exact).abs() <= exact * 0.03;
        assert!(approx(report.p50(), 50.0), "p50 {}", report.p50());
        assert!(approx(report.p95(), 95.0), "p95 {}", report.p95());
        assert!(approx(report.p99(), 99.0), "p99 {}", report.p99());
        assert_eq!(report.max(), 100.0);
        assert!(approx(report.quantile(0.0), 1.0), "q0 {}", report.quantile(0.0));
        assert!(approx(report.quantile(1.0), 100.0), "q1 {}", report.quantile(1.0));
    }

    #[test]
    fn single_sample_every_quantile() {
        let report = LatencyReport::from_samples(vec![4.2]);
        assert_eq!(report.p50(), 4.2);
        assert_eq!(report.p99(), 4.2);
    }

    #[test]
    fn empty_report_is_zero() {
        let report = LatencyReport::default();
        assert!(report.is_empty());
        assert_eq!(report.p99(), 0.0);
        assert_eq!(report.mean(), 0.0);
        assert_eq!(report.max(), 0.0);
        assert!(!report.violates_sla(5.0));
    }

    #[test]
    fn sla_violation_detection() {
        let report =
            LatencyReport::from_samples(vec![1.0; 98].into_iter().chain([6.0, 7.0]).collect());
        assert!(report.violates_sla(5.0));
        let ok = LatencyReport::from_samples(vec![1.0; 100]);
        assert!(!ok.violates_sla(5.0));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_range_checked() {
        let _ = LatencyReport::from_samples(vec![1.0]).quantile(1.5);
    }
}
