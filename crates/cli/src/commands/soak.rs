//! `cubefit soak` — long-horizon audited soak runs with shrinking repros.

use crate::args::ParsedArgs;
use crate::lifecycle_args::{config_from, execute, Preset};
use cubefit_sim::LifecycleConfig;

/// Flags accepted by `soak`.
pub const FLAGS: &[&str] = &[
    "algorithm",
    "gamma",
    "distribution",
    "ops",
    "seed",
    "departures",
    "failures",
    "max-failures",
    "audit-every",
    "checkpoint-every",
    "defrag-every",
    "defrag-moves",
    "defrag-load",
    "drift",
    "profile",
    "mitigate-every",
    "mitigate-moves",
    "mitigate-load",
    "slack",
    "inject-at",
    "fail-on-violation",
    "out",
    "scenario-out",
    "metrics-out",
    "trace-out",
    "journal",
    "fsync",
    "crash-at",
];

/// Usage line shown in `--help`.
pub const USAGE: &str = "soak [--algorithm cubefit] [--gamma G] [--ops N] [--seed S] \
                         [--departures PCT] [--failures PCT] [--audit-every N] \
                         [--checkpoint-every N] [--defrag-every N] [--drift] \
                         [--inject-at OP] [--fail-on-violation BOOL] [--out REPORT.json] \
                         [--scenario-out SCENARIO.json] [--metrics-out M.json] \
                         [--trace-out EVENTS.jsonl] [--journal DIR] \
                         [--fsync always|interval:N|never] [--crash-at OP]";

/// `soak` defaults: the steady-state preset, 100 000 ops from seed 0.
pub(crate) const PRESET: Preset = |algorithm| LifecycleConfig::steady(algorithm, 100_000, 0);

/// Runs the command. A clean soak returns its report; a soak that detects
/// an audit failure or invariant violation writes the replayable scenario
/// file and returns an error so scripted runs exit non-zero.
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, I/O failures — or a failed
/// soak (after writing the scenario file).
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let config = config_from(args, PRESET)?;
    // A crash drill stops dead without sealing, as a kill -9 would; any
    // other run drains on Ctrl-C, fsyncs, and seals the journal first.
    let outcome = execute(args, &config, config.crash_at.is_none())?;
    let report = &outcome.report;
    let summary = format!(
        "{} (seed {}): {}/{} ops — {} arrivals, {} departures, {} failure events; \
         {} audits ({} failed), {} checkpoints, {} violations; \
         final: {} tenants on {} bins, fragmentation {:.3}, robust {}\n",
        report.algorithm,
        report.seed,
        report.ops_run,
        report.ops_requested,
        report.arrivals,
        report.departures,
        report.failure_events,
        report.audits,
        report.audit_failures,
        report.checkpoints,
        report.drift_violations,
        report.final_tenants,
        report.final_open_bins,
        report.fragmentation.fragmentation_ratio,
        report.robust,
    );
    // Unlike the other lifecycle commands, soak prints its summary line
    // last and whether or not the JSON went to stdout.
    let mut output = outcome.render(args, "soak", "")?;
    output.push_str(&summary);

    match (&report.failure, &report.scenario) {
        (Some(failure), Some(scenario)) => {
            let path = args.get("scenario-out").unwrap_or("cubefit-soak-scenario.json");
            crate::output::write_report(path, scenario.to_json())?;
            Err(format!(
                "{output}soak FAILED at op {}: {}\n\
                 replayable scenario (ops {}..={}) written to {path}\n\
                 shrink it with: cubefit replay {path} --shrink",
                failure.op, failure.reason, scenario.window_lo, scenario.window_hi,
            ))
        }
        _ => Ok(output),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_sim::{LifecycleReport, Scenario};

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn clean_soak_reports_audits_and_checkpoints() {
        let out_path = tmp("soak-report.json");
        let args = ParsedArgs::parse([
            "soak",
            "--ops",
            "1500",
            "--seed",
            "11",
            "--audit-every",
            "300",
            "--checkpoint-every",
            "150",
            "--out",
            &out_path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("soak report written to"), "{out}");
        assert!(out.contains("robust true"), "{out}");
        let report: LifecycleReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(report.ops_run, 1500);
        assert!(report.failure.is_none());
        assert_eq!(report.final_audit_divergences, Some(0));
        assert!(report.audits >= 5);
    }

    #[test]
    fn injected_fault_writes_scenario_and_fails_the_command() {
        let scenario_path = tmp("soak-scenario.json");
        let args = ParsedArgs::parse([
            "soak",
            "--ops",
            "2000",
            "--seed",
            "11",
            "--checkpoint-every",
            "100",
            "--inject-at",
            "731",
            "--scenario-out",
            &scenario_path,
        ])
        .unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.contains("soak FAILED"), "{err}");
        assert!(err.contains("replayable scenario"), "{err}");
        // Without --out the JSON report is followed by the summary line.
        assert!(err.contains("}\ncubefit"), "{err}");
        let scenario =
            Scenario::from_json(&std::fs::read_to_string(&scenario_path).unwrap()).unwrap();
        assert!(scenario.window_lo <= 731 && 731 <= scenario.window_hi);
        assert_eq!(scenario.config.inject_at, Some(731));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_mixes() {
        let args = ParsedArgs::parse(["soak", "--frobnicate", "1"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["soak", "--departures", "80", "--failures", "30"]).unwrap();
        assert!(run(&args).unwrap_err().contains("exceeds 100%"));
        // The journal-only flags demand a journal.
        let args = ParsedArgs::parse(["soak", "--ops", "10", "--crash-at", "5"]).unwrap();
        assert!(run(&args).unwrap_err().contains("--journal"));
        let args = ParsedArgs::parse(["soak", "--ops", "10", "--fsync", "never"]).unwrap();
        assert!(run(&args).unwrap_err().contains("--journal"));
    }

    fn journal_dir(name: &str) -> String {
        let dir = std::env::temp_dir()
            .join(format!("cubefit-cli-soak-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.to_string_lossy().into_owned()
    }

    #[test]
    fn journaled_soak_seals_and_recovers_clean() {
        let dir = journal_dir("sealed");
        let args = ParsedArgs::parse([
            "soak",
            "--ops",
            "800",
            "--seed",
            "5",
            "--checkpoint-every",
            "200",
            "--journal",
            &dir,
            "--fsync",
            "never",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("journal sealed at seq"), "{out}");
        let recovered =
            super::super::recover::run(&ParsedArgs::parse(["recover", &dir, "--audit"]).unwrap())
                .unwrap();
        assert!(recovered.contains("clean (journal sealed)"), "{recovered}");
        assert!(recovered.contains("audit: oracle agrees"), "{recovered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The CI crash drill end-to-end: a journaled soak stopped dead at an
    /// arbitrary op leaves an unsealed journal, and
    /// `cubefit recover --audit --out` reconstructs an audit-clean dump
    /// that `cubefit check --audit` accepts.
    #[test]
    fn crash_at_leaves_an_unsealed_journal_that_recovers() {
        let dir = journal_dir("crash");
        let args = ParsedArgs::parse([
            "soak",
            "--ops",
            "2000",
            "--seed",
            "11",
            "--checkpoint-every",
            "150",
            "--journal",
            &dir,
            "--crash-at",
            "731",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("journal left UNSEALED"), "{out}");
        assert!(out.contains("cubefit recover"), "{out}");
        let dump_path = format!("{dir}/recovered.json");
        let recovered = super::super::recover::run(
            &ParsedArgs::parse(["recover", &dir, "--audit", "--out", &dump_path]).unwrap(),
        )
        .unwrap();
        assert!(recovered.contains("UNCLEAN"), "{recovered}");
        assert!(recovered.contains("audit: oracle agrees"), "{recovered}");
        let check = super::super::check::run(
            &ParsedArgs::parse(["check", dump_path.as_str(), "--audit"]).unwrap(),
        )
        .unwrap();
        assert!(check.contains("oracle agrees"), "{check}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
