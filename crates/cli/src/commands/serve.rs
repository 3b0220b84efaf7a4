//! `cubefit serve` — overload-safe service-loop benchmark.
//!
//! Runs the deterministic DES load harness ([`cubefit_sim::serve`])
//! against a [`cubefit_service::PlacementService`]: open/closed-loop
//! clients, optional burst storm, adaptive admission control, and the
//! audit degradation ladder. Reports latency percentiles, goodput, and
//! shed rate; `--dump` writes the final placement for
//! `cubefit check --audit`.

use crate::args::ParsedArgs;
use crate::spec_parse;
use crate::telemetry_out;
use cubefit_service::{LimiterSpec, ShutdownFlag};
use cubefit_sim::serve::{run_serve, ServeConfig, StormProfile};
use cubefit_sim::RunOptions;

/// Flags accepted by `serve`.
pub const FLAGS: &[&str] = &[
    "bench",
    "algorithm",
    "gamma",
    "distribution",
    "seed",
    "storm",
    "horizon-ms",
    "rate",
    "clients",
    "depart",
    "update",
    "limiter",
    "deadline-ms",
    "slo-ms",
    "interrupt-at",
    "out",
    "dump",
    "metrics-out",
    "trace-out",
    "journal",
    "fsync",
    "checkpoint-batches",
];

/// Usage line shown in `--help`.
pub const USAGE: &str = "serve --bench [--seed S] [--storm] [--algorithm cubefit] [--gamma G] \
                         [--horizon-ms MS] [--rate R] [--clients N] [--depart PCT] \
                         [--update PCT] \
                         [--limiter aimd:4-64|gradient:4-64|fixed:N] [--deadline-ms MS] \
                         [--slo-ms MS] [--interrupt-at MS] [--out REPORT.json] \
                         [--dump PLACEMENT.json] [--metrics-out M.json] [--trace-out E.jsonl] \
                         [--journal DIR] [--fsync always|interval:N|never] \
                         [--checkpoint-batches N]";

/// Builds a [`ServeConfig`] from parsed flags.
pub(crate) fn config_from(args: &ParsedArgs) -> Result<ServeConfig, String> {
    let seed: u64 = args.get_or("seed", 0u64, "an integer").map_err(|e| e.to_string())?;
    let mut config = ServeConfig::bench(seed, args.has("storm"));
    let gamma: usize = args.get_or("gamma", 2usize, "an integer").map_err(|e| e.to_string())?;
    if let Some(raw) = args.get("algorithm") {
        config.algorithm = spec_parse::parse_algorithm(raw, gamma)?;
    }
    if let Some(raw) = args.get("distribution") {
        config.distribution = spec_parse::parse_distribution(raw)?;
    }
    config.horizon_ms =
        args.get_or("horizon-ms", config.horizon_ms, "milliseconds").map_err(|e| e.to_string())?;
    config.open_rate_per_sec = args
        .get_or("rate", config.open_rate_per_sec, "requests per second")
        .map_err(|e| e.to_string())?;
    config.closed_clients =
        args.get_or("clients", config.closed_clients, "an integer").map_err(|e| e.to_string())?;
    config.depart_percent =
        args.get_or("depart", config.depart_percent, "a percentage").map_err(|e| e.to_string())?;
    config.update_percent =
        args.get_or("update", config.update_percent, "a percentage").map_err(|e| e.to_string())?;
    if let Some(raw) = args.get("limiter") {
        config.service.limiter = LimiterSpec::parse(raw)?;
    }
    config.service.deadline_ms = args
        .get_or("deadline-ms", config.service.deadline_ms, "milliseconds")
        .map_err(|e| e.to_string())?;
    config.service.slo_p99_ms = args
        .get_or("slo-ms", config.service.slo_p99_ms, "milliseconds")
        .map_err(|e| e.to_string())?;
    // Rescale the storm to the (possibly overridden) horizon so a short
    // smoke run still exercises the burst window.
    if args.has("storm") {
        config.storm = Some(StormProfile {
            start_ms: config.horizon_ms * 0.25,
            duration_ms: config.horizon_ms * 0.50,
            rate_multiplier: 4.0,
        });
    }
    config.journal_checkpoint_batches = args
        .get_or("checkpoint-batches", config.journal_checkpoint_batches, "an integer")
        .map_err(|e| e.to_string())?;
    config.interrupt_at_ms = match args.get("interrupt-at") {
        None => None,
        Some(_) => {
            Some(args.get_or("interrupt-at", 0.0f64, "milliseconds").map_err(|e| e.to_string())?)
        }
    };
    Ok(config)
}

/// Runs the command, returning its stdout text.
///
/// # Errors
///
/// Returns a message for bad flags, invalid configurations, I/O failures,
/// or audit divergences on admitted mutations (scripted runs exit
/// non-zero).
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    if !args.has("bench") {
        return Err(format!("serve currently only supports the bench harness\nusage: {USAGE}"));
    }
    let config = config_from(args)?;
    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    let recorder = telemetry_out::recorder_for(metrics_out, trace_out)?;
    if args.has("checkpoint-batches") && !args.has("journal") {
        return Err(
            "--checkpoint-batches only applies to journaled runs (add --journal DIR)".to_string()
        );
    }
    let journal = super::journal_from(args, config.algorithm.gamma())?;
    let options = RunOptions {
        recorder: recorder.clone(),
        // A scripted interrupt gets a private flag so in-process tests
        // don't poison the global Ctrl-C flag; interactive runs hook the
        // signal.
        shutdown: if config.interrupt_at_ms.is_some() {
            ShutdownFlag::new()
        } else {
            ShutdownFlag::install()
        },
        journal: journal.clone(),
    };
    let run = run_serve(config, &options).map_err(|e| e.to_string())?;
    recorder.flush()?;
    let report = &run.report;

    let mut output = String::new();
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("out") {
        crate::output::write_report(path, &json)?;
        output.push_str(&format!("serve report written to {path}\n"));
    } else {
        output.push_str(&json);
        output.push('\n');
    }
    if let Some(path) = args.get("dump") {
        let dump_json = serde_json::to_string_pretty(&run.dump).map_err(|e| e.to_string())?;
        crate::output::write_report(path, dump_json)?;
        output.push_str(&format!("placement dump written to {path} (audit with cubefit check)\n"));
    }
    if let Some(path) = metrics_out {
        telemetry_out::write_metrics(path, &recorder.snapshot())?;
        output.push_str(&format!("metrics written to {path}\n"));
    }
    if let Some(path) = trace_out {
        output.push_str(&format!("serve trace written to {path}\n"));
    }
    if let Some(journal) = &journal {
        output.push_str(&format!(
            "journal sealed at seq {} in {}\n",
            journal.last_seq(),
            args.get("journal").unwrap_or_default()
        ));
    }
    output.push_str(&format!(
        "{} behind {} (seed {}{}{}): {}/{} completed in {:.0}ms — \
         p50 {:.1}ms p99 {:.1}ms p999 {:.1}ms, goodput {:.1}/s; \
         shed {} ({:.1}%), queue-full {}, deadline {}; \
         {} audits ({} divergences), ladder -{}/+{} ending {}; \
         final: limit {}, {} tenants on {} bins, robust {}\n",
        report.algorithm,
        report.limiter,
        report.seed,
        if report.storm { ", storm" } else { "" },
        if report.interrupted { ", INTERRUPTED" } else { "" },
        report.completed,
        report.offered,
        report.duration_ms,
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.latency.p999_ms,
        report.goodput_per_sec,
        report.shed,
        report.shed_rate * 100.0,
        report.queue_full,
        report.deadline_expired,
        report.audits,
        report.audit_divergences,
        report.ladder_down,
        report.ladder_up,
        report.final_audit_mode,
        report.final_limit,
        report.tenants,
        report.bins,
        report.robust,
    ));

    if report.audit_divergences > 0 {
        return Err(format!(
            "{output}serve FAILED: {} audit divergences on admitted mutations",
            report.audit_divergences
        ));
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::PlacementDump;
    use cubefit_sim::serve::ServeReport;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn bench_run_writes_report_and_auditable_dump() {
        let out_path = tmp("serve-report.json");
        let dump_path = tmp("serve-dump.json");
        let args = ParsedArgs::parse([
            "serve",
            "--bench",
            "--seed",
            "7",
            "--horizon-ms",
            "2000",
            "--rate",
            "150",
            "--update",
            "0",
            "--out",
            &out_path,
            "--dump",
            &dump_path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("serve report written to"), "{out}");
        let report: ServeReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(report.completed > 0);
        assert_eq!(report.audit_divergences, 0);
        assert!(!report.interrupted);

        // The dump must replay clean through `cubefit check --audit`.
        let check_args = ParsedArgs::parse(["check", &dump_path, "--audit"]).unwrap();
        let check_out = super::super::check::run(&check_args).unwrap();
        assert!(check_out.contains("audit"), "{check_out}");
    }

    #[test]
    fn storm_sheds_and_reports_it() {
        let args = ParsedArgs::parse([
            "serve",
            "--bench",
            "--storm",
            "--seed",
            "11",
            "--horizon-ms",
            "4000",
            "--rate",
            "250",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let report: ServeReport =
            serde_json::from_str(&out[..out.rfind('}').unwrap() + 1]).unwrap();
        assert!(report.storm);
        assert!(report.shed > 0, "storm must shed: {out}");
        assert_eq!(report.audit_divergences, 0);
    }

    /// Satellite: an interrupted serve run still writes parseable JSON —
    /// both the partial report and a dump that rebuilds a placement.
    #[test]
    fn interrupted_run_still_writes_parseable_json() {
        let out_path = tmp("serve-interrupted.json");
        let dump_path = tmp("serve-interrupted-dump.json");
        let args = ParsedArgs::parse([
            "serve",
            "--bench",
            "--seed",
            "3",
            "--horizon-ms",
            "10000",
            "--interrupt-at",
            "1500",
            "--out",
            &out_path,
            "--dump",
            &dump_path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("INTERRUPTED"), "{out}");
        let report: ServeReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert!(report.interrupted);
        assert!(report.duration_ms < 10_000.0);
        let dump: PlacementDump =
            serde_json::from_str(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
        dump.to_placement().unwrap();
    }

    #[test]
    fn rejects_unknown_flags_missing_bench_and_bad_limiters() {
        let args = ParsedArgs::parse(["serve", "--frobnicate", "1"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["serve"]).unwrap();
        assert!(run(&args).unwrap_err().contains("--bench"), "must point at --bench");
        let args = ParsedArgs::parse(["serve", "--bench", "--limiter", "quantum:1-2"]).unwrap();
        assert!(run(&args).is_err());
    }
}
