//! `cubefit drift` — load-drift robustness runs: online re-estimation,
//! invariant monitoring, and budgeted mitigation.
//!
//! The command drives a lifecycle run in which every tenant's load drifts
//! between ops (`--profile walk:N` or `--profile burst:m=M,p=P`), the
//! invariant monitor flags servers whose Theorem-1 margin goes negative,
//! and — at the `--mitigate-every` stride — a mitigation epoch drains
//! flagged servers under the `--mitigate-moves` / `--mitigate-load`
//! budget, degrading gracefully to an explicit residual-risk report when
//! the budget runs out. With `--audit` every mutation (placements, load
//! updates *and* mitigation migrations) is replayed against the
//! from-scratch oracle.

use crate::args::ParsedArgs;
use crate::lifecycle_args::{config_from, execute, Preset, DEFAULT_DRIFT};
use cubefit_sim::{LifecycleConfig, LifecycleReport};

/// Flags accepted by `drift`.
pub const FLAGS: &[&str] = &[
    "algorithm",
    "gamma",
    "distribution",
    "ops",
    "seed",
    "departures",
    "profile",
    "mitigate-every",
    "mitigate-moves",
    "mitigate-load",
    "slack",
    "audit",
    "out",
    "metrics-out",
    "trace-out",
];

/// Usage line shown in `--help`.
pub const USAGE: &str = "drift [--algorithm cubefit] [--gamma G] [--distribution uniform:1-15] \
                         [--ops N] [--seed S] [--departures PCT] \
                         [--profile burst:m=20,p=0.01] [--mitigate-every N] \
                         [--mitigate-moves M] [--mitigate-load L] [--slack S] [--audit] \
                         [--out REPORT.json] [--metrics-out METRICS.json] \
                         [--trace-out EVENTS.jsonl]";

/// `drift` defaults: 300 ops from seed 0 of 15%-departure churn under
/// burst drift, with no server failures so drift is the only failure
/// mode.
pub(crate) const PRESET: Preset = |algorithm| LifecycleConfig {
    departure_percent: 15,
    failure_percent: 0,
    max_failures: 1,
    drift: Some(DEFAULT_DRIFT),
    ..LifecycleConfig::churn(algorithm, 300, 0)
};

/// Runs the command, returning the JSON report (or a drift-focused
/// summary when `--out` redirects the report to a file).
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, or I/O failures.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let config = config_from(args, PRESET)?;
    let outcome = execute(args, &config, true)?;
    outcome.render(args, "drift", &summary(&outcome.report))
}

/// Drift-focused human summary of a run.
fn summary(report: &LifecycleReport) -> String {
    let mut text = format!(
        "{} (seed {}): {} arrivals, {} departures; {} load updates drifted, \
         {} invariant violations detected\n",
        report.algorithm,
        report.seed,
        report.arrivals,
        report.departures,
        report.drift_updates,
        report.drift_violations,
    );
    if report.mitigation_epochs.is_empty() {
        text.push_str("mitigation: off\n");
    } else {
        text.push_str(&format!(
            "mitigation: {} epochs cured {} servers\n",
            report.mitigation_epochs.len(),
            report.servers_cured_by_mitigation,
        ));
    }
    text.push_str(&format!(
        "final: {} tenants on {} bins, {} violated / {} at risk; robust: {}\n",
        report.final_tenants,
        report.final_open_bins,
        report.final_violated,
        report.final_at_risk,
        report.robust,
    ));
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn unmitigated_burst_drift_breaks_the_invariant() {
        let args = ParsedArgs::parse(["drift", "--ops", "200", "--seed", "31", "--audit"]).unwrap();
        let out = run(&args).unwrap();
        let report: LifecycleReport = serde_json::from_str(&out).unwrap();
        assert!(report.drift_updates > 0);
        assert!(report.drift_violations > 0, "seed 31 must drift into violation");
        assert!(report.final_violated > 0 && !report.robust);
        assert!(report.mitigation_epochs.is_empty(), "mitigation defaults to off");
    }

    #[test]
    fn mitigated_run_cures_violations_and_prints_summary() {
        let path = tmp("drift-report.json");
        let args = ParsedArgs::parse([
            "drift",
            "--ops",
            "200",
            "--seed",
            "31",
            "--mitigate-every",
            "10",
            "--audit",
            "--out",
            &path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("invariant violations detected"), "{out}");
        assert!(out.contains("mitigation:"), "{out}");
        assert!(out.contains("drift report written to"), "{out}");
        let report: LifecycleReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!report.mitigation_epochs.is_empty());
        assert!(report.servers_cured_by_mitigation > 0);
        assert_eq!(report.final_violated, 0, "unlimited budget must clear every violation");
    }

    #[test]
    fn mitigation_budget_caps_epochs() {
        let args = ParsedArgs::parse([
            "drift",
            "--ops",
            "150",
            "--seed",
            "31",
            "--mitigate-every",
            "10",
            "--mitigate-moves",
            "2",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let report: LifecycleReport = serde_json::from_str(&out).unwrap();
        for epoch in &report.mitigation_epochs {
            assert!(epoch.planned_steps <= 2, "budget of 2 moves exceeded");
        }
    }

    #[test]
    fn walk_profile_and_slack_are_accepted() {
        let args =
            ParsedArgs::parse(["drift", "--ops", "80", "--profile", "walk:3", "--slack", "0.1"])
                .unwrap();
        let out = run(&args).unwrap();
        let report: LifecycleReport = serde_json::from_str(&out).unwrap();
        assert!(report.drift_updates > 0, "a walk of step 3 must move some loads");
    }

    #[test]
    fn rejects_bad_flags_profiles_and_slack() {
        let args = ParsedArgs::parse(["drift", "--frobnicate", "1"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["drift", "--profile", "tides"]).unwrap();
        assert!(run(&args).unwrap_err().contains("unknown drift profile"));
        let args = ParsedArgs::parse(["drift", "--slack", "1.5"]).unwrap();
        assert!(run(&args).unwrap_err().contains("must lie in [0, 1)"));
    }
}
