//! `cubefit churn` — seeded churn-and-recovery chaos runs.

use crate::args::ParsedArgs;
use crate::lifecycle_args::{config_from, execute, Preset};
use cubefit_sim::LifecycleConfig;

/// Flags accepted by `churn`.
pub const FLAGS: &[&str] = &[
    "algorithm",
    "gamma",
    "distribution",
    "ops",
    "seed",
    "departures",
    "failures",
    "max-failures",
    "defrag-every",
    "defrag-moves",
    "defrag-load",
    "drift",
    "profile",
    "mitigate-every",
    "mitigate-moves",
    "mitigate-load",
    "slack",
    "audit",
    "rent",
    "block-ms",
    "hourly-usd",
    "ms-per-op",
    "horizon-ms",
    "objective",
    "out",
    "metrics-out",
    "trace-out",
    "journal",
    "fsync",
];

/// Usage line shown in `--help`.
pub const USAGE: &str = "churn [--algorithm cubefit] [--gamma G] [--distribution uniform:1-15] \
                         [--ops N] [--seed S] [--departures PCT] [--failures PCT] \
                         [--max-failures F] [--defrag-every N] [--defrag-moves M] \
                         [--defrag-load L] [--drift] [--profile burst:m=20,p=0.01] \
                         [--mitigate-every N] [--mitigate-moves M] [--mitigate-load L] \
                         [--slack S] [--audit] [--rent] [--block-ms MS] [--hourly-usd USD] \
                         [--ms-per-op MS] [--horizon-ms MS] [--objective bins|cost] \
                         [--out REPORT.json] [--metrics-out METRICS.json] \
                         [--trace-out EVENTS.jsonl] [--journal DIR] \
                         [--fsync always|interval:N|never]";

/// `churn` defaults: the churn preset, 500 ops from seed 0.
pub(crate) const PRESET: Preset = |algorithm| LifecycleConfig::churn(algorithm, 500, 0);

/// Runs the command, returning the JSON churn report (or a summary when
/// `--out` redirects the report to a file).
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, or I/O failures.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let config = config_from(args, PRESET)?;
    let outcome = execute(args, &config, true)?;
    let report = &outcome.report;
    let mut summary = format!(
        "{} (seed {}): {} arrivals, {} departures, {} failure events; \
         recovery moved {} replicas ({:.3} load, {} bins opened); \
         degraded {:.0}s total (max {:.0}s); \
         final: {} tenants on {} bins, utilization {:.3}, \
         fragmentation ratio {:.2}; robust: {}\n",
        report.algorithm,
        report.seed,
        report.arrivals,
        report.departures,
        report.failure_events,
        report.recovery.replicas_migrated,
        report.recovery.moved_load,
        report.recovery.bins_opened,
        report.degraded_seconds_total,
        report.degraded_seconds_max,
        report.final_tenants,
        report.final_open_bins,
        report.fragmentation.mean_fill,
        report.fragmentation.fragmentation_ratio,
        report.robust,
    );
    if !report.defrag_epochs.is_empty() {
        summary.push_str(&format!(
            "defrag: {} epochs closed {} servers\n",
            report.defrag_epochs.len(),
            report.servers_closed_by_defrag,
        ));
    }
    if report.drift_updates > 0 {
        summary.push_str(&format!(
            "drift: {} load updates, {} invariant violations detected; \
             mitigation: {} epochs cured {} servers, final: {} violated / {} at risk\n",
            report.drift_updates,
            report.drift_violations,
            report.mitigation_epochs.len(),
            report.servers_cured_by_mitigation,
            report.final_violated,
            report.final_at_risk,
        ));
    }
    outcome.render(args, "churn", &summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_sim::LifecycleReport;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn emits_json_with_recovery_cost_and_degraded_window() {
        let args = ParsedArgs::parse([
            "churn",
            "--algorithm",
            "cubefit:k=5",
            "--gamma",
            "3",
            "--ops",
            "150",
            "--seed",
            "7",
            "--audit",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let report: LifecycleReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.gamma, 3);
        assert_eq!(report.arrivals + report.departures + report.failure_events, 150);
        assert!(report.robust);
        assert!(out.contains("degraded_seconds_total"));
        assert!(out.contains("replicas_migrated"));
    }

    #[test]
    fn out_flag_writes_report_and_prints_summary() {
        let path = tmp("churn-report.json");
        let args =
            ParsedArgs::parse(["churn", "--ops", "120", "--seed", "3", "--out", &path]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("churn report written to"));
        assert!(out.contains("degraded"));
        // The stdout summary surfaces seed, final bin count and
        // utilization, not just event counts.
        assert!(out.contains("(seed 3)"), "{out}");
        assert!(out.contains("bins, utilization"), "{out}");
        let report: LifecycleReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.seed, 3);
        assert_eq!(report.fragmentation.open_bins, report.final_open_bins);
    }

    #[test]
    fn defrag_every_runs_epochs_under_a_budget() {
        let path = tmp("churn-defrag-report.json");
        let args = ParsedArgs::parse([
            "churn",
            "--ops",
            "200",
            "--seed",
            "17",
            "--departures",
            "40",
            "--failures",
            "0",
            "--defrag-every",
            "50",
            "--defrag-moves",
            "64",
            "--audit",
            "--out",
            &path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("defrag:"), "{out}");
        let report: LifecycleReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(report.defrag_epochs.len(), 4);
        for epoch in &report.defrag_epochs {
            assert!(epoch.outcome.applied_steps <= 64);
        }
        assert!(report.robust);
    }

    #[test]
    fn rejects_negative_defrag_load() {
        let args = ParsedArgs::parse(["churn", "--defrag-load", "-1"]);
        // "--defrag-load -1" parses ("-1" is the value, not a flag), so the
        // rejection comes from the range check.
        let err = run(&args.unwrap()).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn rejects_availability_breaching_failure_count() {
        let args = ParsedArgs::parse(["churn", "--gamma", "2", "--max-failures", "2"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.contains("γ−1"), "{err}");
    }

    /// Regression: at γ = 1 the default used to be `(γ−1).max(1)` = 1, so
    /// a bare `--gamma 1` failed on a `--max-failures` the user never
    /// passed. The default is now γ−1, and the real cause surfaces.
    #[test]
    fn gamma1_reports_the_unsupported_replication_factor() {
        let args = ParsedArgs::parse(["churn", "--gamma", "1", "--ops", "10"]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.contains("replication factor 1 is not supported (must be ≥ 2)"), "{err}");
        assert!(!err.contains("--max-failures"), "{err}");
    }

    #[test]
    fn rejects_overweight_op_mix() {
        let args = ParsedArgs::parse(["churn", "--departures", "70", "--failures", "40"]).unwrap();
        assert!(run(&args).unwrap_err().contains("exceeds 100%"));
    }

    #[test]
    fn trace_out_captures_failure_events() {
        let trace_path = tmp("churn-events.jsonl");
        let args = ParsedArgs::parse([
            "churn",
            "--ops",
            "150",
            "--seed",
            "21",
            "--failures",
            "20",
            "--trace-out",
            &trace_path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("decision trace written to"));
        let events = std::fs::read_to_string(&trace_path).unwrap();
        assert!(events.contains("servers_failed") || events.contains("ServersFailed"));
        assert!(events.contains("recovery_completed") || events.contains("RecoveryCompleted"));
    }
}
