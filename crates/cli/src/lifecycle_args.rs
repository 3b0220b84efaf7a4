//! The flag parser and run wiring shared by the lifecycle commands
//! (`churn`, `soak`, `drift`, `defrag`, `rent`).
//!
//! Each command seeds a [`LifecycleConfig`] preset with its own defaults;
//! every flag the command accepts then overrides the matching field, so a
//! flag means the same thing on every command that takes it.

use crate::args::ParsedArgs;
use crate::{spec_parse, telemetry_out};
use cubefit_core::monitor::DEFAULT_AT_RISK_SLACK;
use cubefit_core::Consolidator;
use cubefit_defrag::{DefragObjective, MigrationBudget};
use cubefit_durability::Journal;
use cubefit_economics::{CostModel, LeaseTerms, MigrationPricing, RentConfig};
use cubefit_service::ShutdownFlag;
use cubefit_sim::lifecycle::{self, AuditPolicy, DriftConfig, LifecycleConfig, LifecycleReport};
use cubefit_sim::{AlgorithmSpec, RunOptions};
use cubefit_telemetry::Recorder;

/// A command's defaults, built once `--algorithm` and `--gamma` are known.
pub(crate) type Preset = fn(AlgorithmSpec) -> LifecycleConfig;

/// What `--drift` turns on (and `drift` always runs) before the drift
/// flags refine it: flash-crowd bursts, no mitigation, unlimited budget.
pub(crate) const DEFAULT_DRIFT: DriftConfig = DriftConfig {
    profile: spec_parse::DEFAULT_BURST,
    mitigate_every: 0,
    budget: MigrationBudget { max_moves: None, max_load: None },
    at_risk_slack: DEFAULT_AT_RISK_SLACK,
};

/// A typed flag with a default.
fn value<T: std::str::FromStr>(
    args: &ParsedArgs,
    flag: &str,
    default: T,
    expected: &'static str,
) -> Result<T, String> {
    args.get_or(flag, default, expected).map_err(|e| e.to_string())
}

/// A typed flag that is `None` when absent.
fn optional<T: std::str::FromStr + Default>(
    args: &ParsedArgs,
    flag: &str,
    expected: &'static str,
) -> Result<Option<T>, String> {
    match args.get(flag) {
        None => Ok(None),
        Some(_) => value(args, flag, T::default(), expected).map(Some),
    }
}

/// Parses a `--{prefix}-moves` / `--{prefix}-load` migration budget;
/// absent limits are unlimited.
fn budget_from(args: &ParsedArgs, prefix: &str) -> Result<MigrationBudget, String> {
    let max_moves = optional(args, &format!("{prefix}-moves"), "an integer")?;
    let max_load: Option<f64> = optional(args, &format!("{prefix}-load"), "a number")?;
    if let Some(load) = max_load.filter(|load| *load < 0.0) {
        return Err(format!("--{prefix}-load {load} must be non-negative"));
    }
    Ok(MigrationBudget { max_moves, max_load })
}

/// Refines `base` with the drift flags (`--profile`, `--mitigate-every`,
/// `--mitigate-moves`, `--mitigate-load`, `--slack`).
fn drift_from(args: &ParsedArgs, base: DriftConfig) -> Result<DriftConfig, String> {
    let profile = match args.get("profile") {
        Some(raw) => spec_parse::parse_drift_profile(raw)?,
        None => base.profile,
    };
    let at_risk_slack = value(args, "slack", base.at_risk_slack, "a number")?;
    if !(0.0..1.0).contains(&at_risk_slack) {
        return Err(format!("--slack {at_risk_slack} must lie in [0, 1)"));
    }
    Ok(DriftConfig {
        profile,
        mitigate_every: value(args, "mitigate-every", base.mitigate_every, "an integer")?,
        budget: budget_from(args, "mitigate")?,
        at_risk_slack,
    })
}

/// Parses the renting flags. `--rent` enables the ledger at c4.4xlarge
/// defaults; `--block-ms`, `--hourly-usd`, `--ms-per-op` and
/// `--horizon-ms` each refine it (and each implies `--rent` on its own).
fn rent_from(args: &ParsedArgs) -> Result<Option<RentConfig>, String> {
    let enabled = args.has("rent")
        || ["block-ms", "hourly-usd", "ms-per-op", "horizon-ms"]
            .iter()
            .any(|flag| args.get(flag).is_some());
    if !enabled {
        return Ok(None);
    }
    let block_ms: u64 = value(args, "block-ms", 3_600_000, "an integer")?;
    if block_ms == 0 {
        return Err("--block-ms must be positive".to_owned());
    }
    let mut rent = RentConfig::c4_4xlarge(block_ms);
    if let Some(hourly) = optional::<f64>(args, "hourly-usd", "a number")? {
        if hourly <= 0.0 || !hourly.is_finite() {
            return Err(format!("--hourly-usd {hourly} must be positive and finite"));
        }
        rent.terms = LeaseTerms::new(block_ms, CostModel::with_hourly_usd(hourly));
        rent.pricing = MigrationPricing::at_hourly_rate(hourly);
    }
    rent.ms_per_op = value(args, "ms-per-op", rent.ms_per_op, "an integer")?;
    if rent.ms_per_op == 0 {
        return Err("--ms-per-op must be positive".to_owned());
    }
    rent.horizon_ms = value(args, "horizon-ms", rent.horizon_ms, "an integer")?;
    if rent.horizon_ms == 0 {
        return Err("--horizon-ms must be positive".to_owned());
    }
    Ok(Some(rent))
}

/// Parses `--objective bins|cost`. The cost objective needs a ledger to
/// consult, so it requires the renting flags.
fn objective_from(args: &ParsedArgs, rent: Option<&RentConfig>) -> Result<DefragObjective, String> {
    match args.get("objective").unwrap_or("bins") {
        "bins" => Ok(DefragObjective::Bins),
        "cost" => match rent {
            Some(config) => Ok(DefragObjective::Cost { horizon_ms: config.horizon_ms }),
            None => Err("--objective cost requires --rent (there is no ledger to consult \
                         without a renting model)"
                .to_owned()),
        },
        other => Err(format!("unknown objective '{other}' (expected bins or cost)")),
    }
}

/// Builds a command's config: `preset` supplies the defaults, and every
/// flag present overrides its field. Callers reject flags outside their
/// own `FLAGS` list first, so each command sees only the overrides it
/// documents.
///
/// # Errors
///
/// Returns a message for malformed values, an op mix above 100%, or an
/// explicit `--max-failures` that would breach the γ−1 reserve.
pub(crate) fn config_from(args: &ParsedArgs, preset: Preset) -> Result<LifecycleConfig, String> {
    let gamma: usize = value(args, "gamma", 2, "an integer")?;
    let algorithm = spec_parse::parse_algorithm(args.get("algorithm").unwrap_or("cubefit"), gamma)?;
    let mut config = preset(algorithm);
    if let Some(raw) = args.get("distribution") {
        config.distribution = spec_parse::parse_distribution(raw)?;
    }
    config.ops = value(args, "ops", config.ops, "an integer")?;
    config.seed = value(args, "seed", config.seed, "an integer")?;
    config.departure_percent = value(args, "departures", config.departure_percent, "a percentage")?;
    config.failure_percent = value(args, "failures", config.failure_percent, "a percentage")?;
    if config.departure_percent + config.failure_percent > 100 {
        return Err(format!(
            "--departures {} plus --failures {} exceeds 100%",
            config.departure_percent, config.failure_percent
        ));
    }
    if let Some(max_failures) = optional(args, "max-failures", "an integer")? {
        if max_failures >= gamma {
            return Err(format!(
                "--max-failures {max_failures} would breach availability: at most γ−1 = {} \
                 servers may fail per event",
                gamma.saturating_sub(1)
            ));
        }
        config.max_failures = max_failures;
    }
    if args.has("audit") {
        config.audit = AuditPolicy::EveryMutation;
    }
    if let Some(every) = optional(args, "audit-every", "an integer")? {
        config.audit = if every == 0 { AuditPolicy::Off } else { AuditPolicy::Sampled { every } };
    }
    config.checkpoint_every =
        value(args, "checkpoint-every", config.checkpoint_every, "an integer")?;
    config.defrag_every = value(args, "defrag-every", config.defrag_every, "an integer")?;
    config.defrag_budget = budget_from(args, "defrag")?;
    config.rent = rent_from(args)?.or(config.rent);
    config.defrag_objective = objective_from(args, config.rent.as_ref())?;
    if args.has("drift") || config.drift.is_some() {
        config.drift = Some(drift_from(args, config.drift.unwrap_or(DEFAULT_DRIFT))?);
    }
    config.inject_at = optional(args, "inject-at", "an op index")?.or(config.inject_at);
    config.crash_at = optional(args, "crash-at", "an op index")?.or(config.crash_at);
    // Drifted runs expect transient violations (mitigation trails the
    // drift), so only static-load runs fail on one by default.
    config.fail_on_violation = value(
        args,
        "fail-on-violation",
        config.fail_on_violation && config.drift.is_none(),
        "true or false",
    )?;
    Ok(config)
}

/// A finished command-line run and the wiring it ran with.
pub(crate) struct Outcome {
    pub(crate) report: LifecycleReport,
    pub(crate) consolidator: Box<dyn Consolidator>,
    pub(crate) recorder: Recorder,
    journal: Option<Journal>,
    crashed: bool,
}

/// Runs `config` with the command-line wiring: telemetry from
/// `--metrics-out` / `--trace-out`, the `--journal` (if any), and — when
/// `interruptible` — the Ctrl-C flag, after which the run drains, seals
/// its journal, and reports the ops done so far.
///
/// # Errors
///
/// Returns a message for unusable output paths, journal flags without a
/// journal, and run errors.
pub(crate) fn execute(
    args: &ParsedArgs,
    config: &LifecycleConfig,
    interruptible: bool,
) -> Result<Outcome, String> {
    let recorder = telemetry_out::recorder_for(args.get("metrics-out"), args.get("trace-out"))?;
    let journal = crate::commands::journal_from(args, config.algorithm.gamma())?;
    if config.crash_at.is_some() && journal.is_none() {
        return Err("--crash-at only applies to journaled runs (add --journal DIR)".to_owned());
    }
    let options = RunOptions {
        recorder: recorder.clone(),
        shutdown: if interruptible { ShutdownFlag::install() } else { ShutdownFlag::new() },
        journal: journal.clone(),
    };
    let (report, consolidator) = lifecycle::run(config, &options).map_err(|e| e.to_string())?;
    recorder.flush()?;
    Ok(Outcome { report, consolidator, recorder, journal, crashed: config.crash_at.is_some() })
}

impl Outcome {
    /// [`render`]s the JSON report, then notes the journal's final state.
    ///
    /// # Errors
    ///
    /// Returns a message when a report or metrics file cannot be written.
    pub(crate) fn render(
        &self,
        args: &ParsedArgs,
        command: &str,
        summary: &str,
    ) -> Result<String, String> {
        let mut output = render(args, command, &self.report.to_json(), summary, &self.recorder)?;
        if let Some(journal) = &self.journal {
            let dir = args.get("journal").unwrap_or_default();
            let seq = journal.last_seq();
            output.push_str(&if self.crashed {
                format!(
                    "journal left UNSEALED at seq {seq} in {dir} (crash drill) — \
                     reconstruct with: cubefit recover {dir}\n"
                )
            } else {
                format!("journal sealed at seq {seq} in {dir}\n")
            });
        }
        Ok(output)
    }
}

/// Renders a command's stdout. With `--out` the JSON document goes to
/// that file and stdout carries `summary`; otherwise stdout is the JSON.
/// Notes on the `--metrics-out` and `--trace-out` outputs follow.
///
/// # Errors
///
/// Returns a message when a report or metrics file cannot be written.
pub(crate) fn render(
    args: &ParsedArgs,
    command: &str,
    json: &str,
    summary: &str,
    recorder: &Recorder,
) -> Result<String, String> {
    let mut output = String::new();
    if let Some(path) = args.get("out") {
        crate::output::write_report(path, json)?;
        output.push_str(summary);
        output.push_str(&format!("{command} report written to {path}\n"));
    } else {
        output.push_str(json);
        output.push('\n');
    }
    if let Some(path) = args.get("metrics-out") {
        telemetry_out::write_metrics(path, &recorder.snapshot())?;
        output.push_str(&format!("metrics written to {path}\n"));
    }
    if let Some(path) = args.get("trace-out") {
        output.push_str(&format!("decision trace written to {path}\n"));
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str], preset: Preset) -> Result<LifecycleConfig, String> {
        config_from(&ParsedArgs::parse(argv.iter().copied()).unwrap(), preset)
    }

    /// FNV-1a over the final placement dump's JSON.
    fn dump_hash(consolidator: &dyn Consolidator) -> u64 {
        let dump = cubefit_core::PlacementDump::from_placement(consolidator.placement());
        serde_json::to_string(&dump).unwrap().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Final-placement hashes pinned from the separate churn and soak
    /// drivers this one replaced: every bins-objective preset must
    /// reproduce its placement byte for byte.
    #[test]
    fn presets_reproduce_the_pinned_final_placements() {
        use crate::commands::{churn, defrag, drift, soak};
        let cases: [(&[&str], Preset, u64); 6] = [
            (
                &[
                    "churn",
                    "--algorithm",
                    "cubefit:k=5",
                    "--gamma",
                    "3",
                    "--ops",
                    "2000",
                    "--seed",
                    "42",
                ],
                churn::PRESET,
                0xf290_dae8_e43f_ae13,
            ),
            (
                &["soak", "--algorithm", "cubefit:k=5", "--ops", "2000", "--seed", "11"],
                soak::PRESET,
                0xae67_8d57_ba6c_b1e6,
            ),
            (&["drift", "--seed", "31"], drift::PRESET, 0xb111_eff3_9304_b5e7),
            (
                &["drift", "--seed", "31", "--mitigate-every", "10"],
                drift::PRESET,
                0x7c78_fef1_9342_7cf4,
            ),
            (&["defrag", "--seed", "17"], defrag::PRESET, 0x9791_48fe_9708_f6a4),
            (
                &[
                    "churn",
                    "--ops",
                    "400",
                    "--seed",
                    "17",
                    "--departures",
                    "40",
                    "--failures",
                    "0",
                    "--max-failures",
                    "1",
                    "--defrag-every",
                    "50",
                    "--rent",
                ],
                churn::PRESET,
                0xa28c_0f57_624d_8101,
            ),
        ];
        for (argv, preset, pinned) in cases {
            let config = parse(argv, preset).unwrap();
            let (_, consolidator) = lifecycle::run(&config, &RunOptions::default()).unwrap();
            assert_eq!(dump_hash(&*consolidator), pinned, "{argv:?}");
        }
    }

    #[test]
    fn flags_override_the_preset_and_absent_flags_keep_it() {
        let churn = crate::commands::churn::PRESET;
        let config = parse(&["churn"], churn).unwrap();
        assert_eq!(
            config,
            LifecycleConfig::churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, 500, 0)
        );
        let config = parse(
            &[
                "churn",
                "--gamma",
                "3",
                "--audit",
                "--defrag-every",
                "7",
                "--drift",
                "--slack",
                "0.1",
            ],
            churn,
        )
        .unwrap();
        assert_eq!(config.max_failures, 2, "the default is γ−1");
        assert_eq!(config.audit, AuditPolicy::EveryMutation);
        assert_eq!(config.defrag_every, 7);
        assert_eq!(config.drift, Some(DriftConfig { at_risk_slack: 0.1, ..DEFAULT_DRIFT }));
        assert!(!config.fail_on_violation);
        let soak = crate::commands::soak::PRESET;
        assert_eq!(parse(&["soak", "--audit-every", "0"], soak).unwrap().audit, AuditPolicy::Off);
        assert!(!parse(&["soak", "--drift"], soak).unwrap().fail_on_violation);
        let err = parse(&["churn", "--gamma", "2", "--max-failures", "2"], churn).unwrap_err();
        assert!(err.contains("γ−1"), "{err}");
    }
}
