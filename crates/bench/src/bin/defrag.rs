//! Extension experiment: defragmentation yield vs. migration budget.
//!
//! Departure-heavy churn strands low-fill servers; the defrag engine buys
//! them back with Theorem-1-safe migrations. This sweep quantifies the
//! trade: servers closed, replica load streamed, and planner wall time as
//! the migration budget grows, on the same seeded fragmented placement.
//!
//! Run: `cargo run --release -p cubefit-bench --bin defrag [-- --quick]`

use cubefit_bench::write_json;
use cubefit_bench::Mode;
use cubefit_defrag::MigrationBudget;
use cubefit_sim::lifecycle::{self, LifecycleConfig, RunOptions};
use cubefit_sim::report::TextTable;
use cubefit_sim::AlgorithmSpec;
use cubefit_telemetry::Recorder;

/// Builds the seeded fragmentation scenario: γ = 2 CubeFit under 40%
/// departures and no failures, which strands low-fill servers.
fn scenario(ops: u64) -> LifecycleConfig {
    LifecycleConfig {
        departure_percent: 40,
        failure_percent: 0,
        max_failures: 1,
        ..LifecycleConfig::churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, ops, 17)
    }
}

fn main() {
    let mode = Mode::from_args();
    let ops = if mode.is_quick() { 300 } else { 2_000 };
    let budgets: &[Option<usize>] = if mode.is_quick() {
        &[Some(4), Some(16), None]
    } else {
        &[Some(2), Some(4), Some(8), Some(16), Some(32), Some(64), Some(128), None]
    };

    let config = scenario(ops);
    println!(
        "Defrag sweep — {} ops of 40%-departure churn (γ=2, K=10, seed {})\n",
        ops, config.seed
    );
    let mut table = TextTable::new(vec![
        "budget (moves)",
        "planned steps",
        "servers closed",
        "moved load",
        "open bins",
        "frag ratio",
        "plan (µs)",
    ]);
    let mut json_rows = Vec::new();

    for &budget_moves in budgets {
        // Re-run the seeded scenario so every budget sees the identical
        // fragmented placement.
        let (_, mut consolidator) =
            lifecycle::run(&config, &RunOptions::default()).expect("churn scenario runs");
        let budget = match budget_moves {
            Some(moves) => MigrationBudget::moves(moves),
            None => MigrationBudget::unlimited(),
        };
        let started = std::time::Instant::now();
        let plan = cubefit_defrag::plan(consolidator.placement(), budget);
        let plan_micros = started.elapsed().as_secs_f64() * 1e6;
        let outcome = cubefit_defrag::apply(&mut *consolidator, &plan, &Recorder::disabled())
            .expect("fresh plans apply cleanly");
        assert!(!outcome.aborted, "fresh plan must not abort");
        let after = consolidator.placement().fragmentation();

        let label = budget_moves.map_or_else(|| "unlimited".to_owned(), |m| m.to_string());
        table.row(vec![
            label.clone(),
            plan.steps.len().to_string(),
            outcome.servers_closed.to_string(),
            format!("{:.3}", outcome.moved_load),
            format!("{} -> {}", plan.open_bins_before, after.open_bins),
            format!(
                "{:.2} -> {:.2}",
                plan.fragmentation_before.fragmentation_ratio, after.fragmentation_ratio
            ),
            format!("{plan_micros:.0}"),
        ]);
        json_rows.push(serde_json::json!({
            "budget_moves": budget_moves,
            "planned_steps": plan.steps.len(),
            "applied_steps": outcome.applied_steps,
            "servers_closed": outcome.servers_closed,
            "moved_load": outcome.moved_load,
            "open_bins_before": plan.open_bins_before,
            "open_bins_after": after.open_bins,
            "fragmentation_ratio_before": plan.fragmentation_before.fragmentation_ratio,
            "fragmentation_ratio_after": after.fragmentation_ratio,
            "plan_micros": plan_micros,
            "robust_after": consolidator.placement().is_robust(),
        }));
    }

    println!("{}", table.render());
    println!("servers closed saturates once the budget covers every drainable bin.");
    write_json(
        "BENCH_defrag",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "scenario_ops": ops,
            "seed": config.seed,
            "rows": json_rows,
        }),
    );
}
