//! `cubefit defrag` — plan and apply robustness-preserving
//! defragmentation on a seeded fragmentation scenario.
//!
//! The command drives a lifecycle run (by default departure-heavy, so the
//! placement ends fragmented), then computes a [`cubefit_defrag::DefragPlan`]
//! under the `--defrag-moves` / `--defrag-load` budget and — unless
//! `--dry-run` is given — applies it through the live consolidator,
//! re-checking every migration and rolling back atomically on infeasibility.
//! With `--audit` every mutation (churn *and* migration) is replayed
//! against the from-scratch oracle.

use crate::args::ParsedArgs;
use crate::lifecycle_args::{config_from, execute, render, Outcome, Preset};
use cubefit_defrag::{DefragObjective, DefragOutcome};
use cubefit_economics::LeaseLedger;
use cubefit_sim::LifecycleConfig;

/// Flags accepted by `defrag`.
pub const FLAGS: &[&str] = &[
    "algorithm",
    "gamma",
    "distribution",
    "ops",
    "seed",
    "departures",
    "failures",
    "defrag-moves",
    "defrag-load",
    "dry-run",
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
];

/// Usage line shown in `--help`.
pub const USAGE: &str = "defrag [--algorithm cubefit] [--gamma G] [--distribution uniform:1-15] \
                         [--ops N] [--seed S] [--departures PCT] [--failures PCT] \
                         [--defrag-moves M] [--defrag-load L] [--dry-run] [--audit] \
                         [--rent] [--block-ms MS] [--hourly-usd USD] [--ms-per-op MS] \
                         [--horizon-ms MS] [--objective bins|cost] \
                         [--out REPORT.json] [--metrics-out METRICS.json] \
                         [--trace-out EVENTS.jsonl]";

/// `defrag` defaults: 400 ops from seed 0 of departure-heavy churn —
/// defrag is only interesting once churn has stranded low-fill servers.
pub(crate) const PRESET: Preset = |algorithm| LifecycleConfig {
    departure_percent: 40,
    failure_percent: 0,
    max_failures: 1,
    ..LifecycleConfig::churn(algorithm, 400, 0)
};

/// Runs the command, returning a combined JSON document (scenario, plan,
/// outcome, fragmentation before/after) or a summary when `--out`
/// redirects the document to a file.
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, or I/O failures.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    // The churn phase runs no defrag epochs (`defrag_every` stays 0): the
    // parsed budget and objective price the standalone plan below.
    let config = config_from(args, PRESET)?;
    let (budget, objective) = (config.defrag_budget, config.defrag_objective);
    let dry_run = args.has("dry-run");
    let Outcome { report, mut consolidator, recorder, .. } = execute(args, &config, false)?;

    // With the cost objective, plan against fresh leases opened at plan
    // time: every surviving server holds one paid rental block from now,
    // so a drain pays off only when the horizon reaches past it. (The
    // churn phase above accrues its own ledger into `report.cost`; this
    // one prices the standalone plan.)
    let (plan, outcome): (cubefit_defrag::DefragPlan, Option<DefragOutcome>) = match objective {
        DefragObjective::Bins => {
            let plan = cubefit_defrag::plan(consolidator.placement(), budget);
            let outcome = if dry_run {
                None
            } else {
                Some(
                    cubefit_defrag::apply(&mut *consolidator, &plan, &recorder)
                        .map_err(|e| e.to_string())?,
                )
            };
            (plan, outcome)
        }
        DefragObjective::Cost { horizon_ms } => {
            let rent = config.rent.expect("the parser enforces --rent for the cost objective");
            let mut ledger = LeaseLedger::new(rent.terms);
            let now = config.ops * rent.ms_per_op;
            ledger.advance(
                now,
                consolidator.placement().bins().filter(|b| b.level() > 0.0).map(|b| b.id()),
            );
            let plan = cubefit_defrag::plan_economic(
                consolidator.placement(),
                budget,
                &ledger,
                &rent.pricing,
                horizon_ms,
            );
            let outcome = if dry_run {
                None
            } else {
                Some(
                    cubefit_defrag::apply_economic(
                        &mut *consolidator,
                        &plan,
                        &ledger,
                        &rent.pricing,
                        &recorder,
                    )
                    .map_err(|e| e.to_string())?,
                )
            };
            (plan, outcome)
        }
    };
    recorder.flush()?;
    let after = consolidator.placement().fragmentation();
    let robust = consolidator.placement().is_robust();

    let document = serde_json::json!({
        "algorithm": report.algorithm.clone(),
        "gamma": report.gamma,
        "seed": report.seed,
        "ops": config.ops,
        "dry_run": dry_run,
        "churn_arrivals": report.arrivals,
        "churn_departures": report.departures,
        "plan": plan,
        "outcome": outcome,
        "fragmentation_after": after,
        "robust": robust,
        "churn_cost": report.cost,
    });
    let json =
        serde_json::to_string_pretty(&document).map_err(|e| format!("encoding report: {e}"))?;

    let summary = summary(&report.algorithm, report.seed, &plan, outcome.as_ref(), robust);
    render(args, "defrag", &json, &summary, &recorder)
}

/// One-paragraph human summary of a plan/apply round.
fn summary(
    algorithm: &str,
    seed: u64,
    plan: &cubefit_defrag::DefragPlan,
    outcome: Option<&DefragOutcome>,
    robust: bool,
) -> String {
    let mut text = format!(
        "{algorithm} (seed {seed}): planned {} migrations ({:.3} load) closing {} of {} bins, \
         fragmentation ratio {:.2} -> {:.2}\n",
        plan.steps.len(),
        plan.moved_load,
        plan.servers_closed(),
        plan.open_bins_before,
        plan.fragmentation_before.fragmentation_ratio,
        plan.fragmentation_after.fragmentation_ratio,
    );
    if let Some(forecast) = &plan.economics {
        text.push_str(&format!(
            "cost objective: predicted net saving ${:.4} over a {} ms horizon \
             ({} unprofitable drain(s) skipped)\n",
            forecast.net_usd, forecast.horizon_ms, forecast.skipped_unprofitable,
        ));
    }
    match outcome {
        None => text.push_str("dry-run: plan not applied\n"),
        Some(o) if o.aborted => text.push_str(&format!(
            "aborted at step {} and rolled back; placement unchanged; robust: {robust}\n",
            o.aborted_at.unwrap_or(0),
        )),
        Some(o) => text.push_str(&format!(
            "applied {} migrations, closed {} servers; robust: {robust}\n",
            o.applied_steps, o.servers_closed,
        )),
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_defrag::DefragPlan;
    use serde_json::Value;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cubefit-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn field<'a>(doc: &'a Value, key: &str) -> &'a Value {
        let Value::Object(map) = doc else { panic!("expected object") };
        map.get(key).unwrap_or_else(|| panic!("missing field {key}"))
    }

    #[test]
    fn audited_defrag_closes_servers_on_fragmented_scenario() {
        let args = ParsedArgs::parse([
            "defrag",
            "--ops",
            "300",
            "--seed",
            "17",
            "--departures",
            "40",
            "--defrag-moves",
            "64",
            "--audit",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        let outcome: DefragOutcome = serde_json::from_value(field(&doc, "outcome")).unwrap();
        assert!(outcome.servers_closed >= 1, "expected at least one closed server: {out}");
        assert!(!outcome.aborted);
        assert_eq!(field(&doc, "robust"), &Value::Bool(true));
        let plan: DefragPlan = serde_json::from_value(field(&doc, "plan")).unwrap();
        assert!(plan.open_bins_after < plan.open_bins_before);
    }

    #[test]
    fn dry_run_plans_without_applying() {
        let args = ParsedArgs::parse([
            "defrag",
            "--ops",
            "300",
            "--seed",
            "17",
            "--departures",
            "40",
            "--dry-run",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        assert_eq!(field(&doc, "dry_run"), &Value::Bool(true));
        assert_eq!(field(&doc, "outcome"), &Value::Null);
        let plan: DefragPlan = serde_json::from_value(field(&doc, "plan")).unwrap();
        assert!(!plan.is_empty(), "the fragmented scenario should yield a non-empty plan");
        // The placement was left untouched, so the live fragmentation
        // statistics must match the plan's *before* snapshot.
        assert_eq!(
            field(&doc, "fragmentation_after"),
            &serde_json::to_value(&plan.fragmentation_before).unwrap(),
        );
    }

    #[test]
    fn migration_budget_caps_the_plan() {
        let args = ParsedArgs::parse([
            "defrag",
            "--ops",
            "300",
            "--seed",
            "17",
            "--departures",
            "40",
            "--defrag-moves",
            "2",
            "--dry-run",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        let plan: DefragPlan = serde_json::from_value(field(&doc, "plan")).unwrap();
        assert!(plan.steps.len() <= 2, "budget of 2 moves exceeded: {} steps", plan.steps.len());
        assert_eq!(plan.budget.max_moves, Some(2));
    }

    #[test]
    fn out_flag_writes_document_and_prints_summary() {
        let path = tmp("defrag-report.json");
        let args = ParsedArgs::parse([
            "defrag",
            "--ops",
            "300",
            "--seed",
            "17",
            "--departures",
            "40",
            "--out",
            &path,
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("(seed 17): planned"), "{out}");
        assert!(out.contains("fragmentation ratio"), "{out}");
        assert!(out.contains("defrag report written to"), "{out}");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(field(&doc, "dry_run"), &Value::Bool(false));
    }

    #[test]
    fn rejects_unknown_flags_and_overweight_mix() {
        let args = ParsedArgs::parse(["defrag", "--frobnicate", "1"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["defrag", "--departures", "80", "--failures", "30"]).unwrap();
        assert!(run(&args).unwrap_err().contains("exceeds 100%"));
    }
}
