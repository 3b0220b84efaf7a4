//! `cubefit rent` — server-renting economics comparison.
//!
//! Runs one seeded lifecycle scenario three times under identical op
//! sequences — no defrag, bin-minimizing defrag, and cost-aware defrag
//! ([`cubefit_defrag::DefragObjective::Cost`]) — with the lease ledger
//! accruing rent throughout, and reports what each policy actually
//! spent: rent, defrag streaming, recovery streaming, and the renting
//! competitive ratio against the clairvoyant lower bound
//! ([`cubefit_analysis::renting_ratio`]).

use crate::args::ParsedArgs;
use crate::lifecycle_args::{config_from, Preset};
use cubefit_defrag::DefragObjective;
use cubefit_economics::{CostReport, RentConfig};
use cubefit_sim::lifecycle::{self, AuditPolicy, LifecycleConfig, RunOptions};

/// Flags accepted by `rent`.
pub const FLAGS: &[&str] = &[
    "algorithm",
    "gamma",
    "distribution",
    "ops",
    "seed",
    "departures",
    "failures",
    "defrag-every",
    "defrag-moves",
    "defrag-load",
    "rent",
    "block-ms",
    "hourly-usd",
    "ms-per-op",
    "horizon-ms",
    "audit",
    "out",
];

/// Usage line shown in `--help`.
pub const USAGE: &str = "rent [--algorithm cubefit] [--gamma G] [--distribution uniform:1-15] \
                         [--ops N] [--seed S] [--departures PCT] [--failures PCT] \
                         [--defrag-every N] [--defrag-moves M] [--defrag-load L] \
                         [--block-ms MS] [--hourly-usd USD] [--ms-per-op MS] [--horizon-ms MS] \
                         [--audit] [--out REPORT.json]";

/// `rent` defaults: 400 ops from seed 17 of departure-heavy churn with
/// the ledger on and defrag every 50 ops — renting economics only bite
/// once churn has stranded under-filled (but still paid-for) servers.
pub(crate) const PRESET: Preset = |algorithm| LifecycleConfig {
    departure_percent: 40,
    failure_percent: 0,
    max_failures: 1,
    defrag_every: 50,
    rent: Some(RentConfig::c4_4xlarge(3_600_000)),
    ..LifecycleConfig::churn(algorithm, 400, 17)
};

/// One policy's outcome in the comparison document.
fn policy_value(label: &str, cost: &CostReport, servers_closed: usize) -> serde_json::Value {
    let ratio = cubefit_analysis::renting_ratio(cost);
    serde_json::json!({
        "policy": label,
        "cost": cost,
        "servers_closed_by_defrag": servers_closed,
        "competitive_ratio": ratio.map(|r| r.ratio),
        "clairvoyant_lower_bound_usd": ratio.map(|r| r.clairvoyant_usd),
    })
}

/// Runs the command, returning the JSON comparison document (or a
/// summary when `--out` redirects it to a file).
///
/// # Errors
///
/// Returns a message for bad flags, bad specs, or I/O failures.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    args.expect_only(FLAGS).map_err(|e| e.to_string())?;
    let base = config_from(args, PRESET)?;
    if base.defrag_every == 0 {
        return Err(
            "--defrag-every must be positive (the comparison needs defrag epochs)".to_owned()
        );
    }
    let rent = base.rent.expect("the preset always rents");
    let policies = [
        ("none", LifecycleConfig { defrag_every: 0, ..base.clone() }),
        ("bins", base.clone()),
        (
            "cost",
            LifecycleConfig {
                defrag_objective: DefragObjective::Cost { horizon_ms: rent.horizon_ms },
                ..base.clone()
            },
        ),
    ];

    let audited = base.audit == AuditPolicy::EveryMutation;
    let mut rows = Vec::new();
    let mut cheapest: Option<(&str, f64)> = None;
    for (label, config) in &policies {
        let (report, _) =
            lifecycle::run(config, &RunOptions::default()).map_err(|e| e.to_string())?;
        let cost = report.cost.expect("rent is always configured here");
        if cheapest.is_none_or(|(_, best)| cost.total_usd < best) {
            cheapest = Some((label, cost.total_usd));
        }
        rows.push((label, cost, report.servers_closed_by_defrag));
    }

    let document = serde_json::json!({
        "algorithm": base.algorithm.label(),
        "seed": base.seed,
        "ops": base.ops,
        "block_ms": rent.terms.block_ms(),
        "hourly_usd": rent.terms.cost().hourly_usd(),
        "ms_per_op": rent.ms_per_op,
        "horizon_ms": rent.horizon_ms,
        // The audited consolidator panics on the first oracle
        // divergence, so audited runs that complete have exactly zero.
        "audit_divergences": if audited { Some(0) } else { None::<usize> },
        "policies": rows
            .iter()
            .map(|(label, cost, closed)| policy_value(label, cost, *closed))
            .collect::<Vec<_>>(),
        "cheapest_policy": cheapest.map(|(label, _)| label),
    });
    let json =
        serde_json::to_string_pretty(&document).map_err(|e| format!("encoding report: {e}"))?;

    let mut output = String::new();
    if let Some(path) = args.get("out") {
        crate::output::write_report(path, &json)?;
        output.push_str(&summary(&rows, cheapest));
        output.push_str(&format!("rent report written to {path}\n"));
    } else {
        output.push_str(&json);
        output.push('\n');
    }
    Ok(output)
}

/// Human summary: one line per policy plus the verdict.
fn summary(rows: &[(&&str, CostReport, usize)], cheapest: Option<(&str, f64)>) -> String {
    let mut text = String::new();
    for (label, cost, closed) in rows {
        let ratio = cubefit_analysis::renting_ratio(cost)
            .map_or("n/a".to_owned(), |r| format!("{:.3}", r.ratio));
        text.push_str(&format!(
            "{label:>5}: total ${:.4} (rent ${:.4}, defrag ${:.4}, recovery ${:.4}), \
             {closed} closed by defrag, competitive ratio {ratio}\n",
            cost.total_usd, cost.rent_usd, cost.defrag_migration_usd, cost.recovery_migration_usd,
        ));
    }
    if let Some((label, total)) = cheapest {
        text.push_str(&format!("cheapest policy: {label} at ${total:.4}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(doc: &'a Value, key: &str) -> &'a Value {
        let Value::Object(map) = doc else { panic!("expected object") };
        map.get(key).unwrap_or_else(|| panic!("missing field {key}"))
    }

    fn number(value: &Value) -> f64 {
        let Value::Number(n) = value else { panic!("expected number, got {value:?}") };
        n.as_f64()
    }

    #[test]
    fn compares_three_policies_and_names_the_cheapest() {
        let args =
            ParsedArgs::parse(["rent", "--ops", "300", "--seed", "17", "--defrag-moves", "64"])
                .unwrap();
        let out = run(&args).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        let Value::Array(policies) = field(&doc, "policies") else { panic!("expected array") };
        assert_eq!(policies.len(), 3);
        for policy in policies {
            let ratio = field(policy, "competitive_ratio");
            assert!(
                matches!(ratio, Value::Number(_)),
                "every policy must have a finite ratio: {policy:?}"
            );
            let cost = field(policy, "cost");
            assert!(number(field(cost, "total_usd")) > 0.0);
        }
        assert!(matches!(field(&doc, "cheapest_policy"), Value::String(_)));
    }

    /// Day-long blocks inside a two-hour horizon: bins-defrag pays
    /// migration for rent it can never save, so the cost-aware policy
    /// must come out strictly cheapest (the BENCH_rent acceptance shape,
    /// in miniature). The run is long enough for leases to approach
    /// their renewal inside the horizon; before that, every open bin's
    /// block is already paid and the cost policy rightly moves nothing,
    /// tying "none".
    #[test]
    fn cost_policy_beats_bins_on_long_blocks() {
        let args = ParsedArgs::parse([
            "rent",
            "--ops",
            "2000",
            "--seed",
            "17",
            "--defrag-moves",
            "64",
            "--block-ms",
            "86400000",
            "--audit",
        ])
        .unwrap();
        let out = run(&args).unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        assert_eq!(number(field(&doc, "audit_divergences")), 0.0);
        let Value::Array(policies) = field(&doc, "policies") else { panic!("expected array") };
        let total = |label: &str| -> f64 {
            policies
                .iter()
                .find(|p| field(p, "policy") == &Value::String(label.to_owned()))
                .map(|p| number(field(field(p, "cost"), "total_usd")))
                .unwrap()
        };
        assert!(
            total("cost") < total("bins"),
            "cost-aware defrag must undercut bins-defrag on paid-up day blocks: {} vs {}",
            total("cost"),
            total("bins")
        );
        assert_eq!(field(&doc, "cheapest_policy"), &Value::String("cost".to_owned()));
    }

    #[test]
    fn rejects_bad_flags() {
        let args = ParsedArgs::parse(["rent", "--frobnicate", "1"]).unwrap();
        assert!(run(&args).is_err());
        let args = ParsedArgs::parse(["rent", "--defrag-every", "0"]).unwrap();
        assert!(run(&args).unwrap_err().contains("defrag-every"));
        let args = ParsedArgs::parse(["rent", "--block-ms", "0"]).unwrap();
        assert!(run(&args).unwrap_err().contains("block-ms"));
    }
}
