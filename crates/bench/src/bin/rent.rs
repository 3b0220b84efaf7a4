//! Extension experiment: server-renting economics across block durations.
//!
//! The same seeded departure-heavy churn scenario runs under three defrag
//! policies — none, bin-minimizing, and cost-aware
//! ([`cubefit_defrag::DefragObjective::Cost`]) — while the lease ledger
//! accrues rent, for a sweep of rental block durations. Short blocks make
//! stranded servers expensive (defrag pays off fast); long pre-paid
//! blocks make migration pure waste (the economic planner must learn to
//! sit still). Every run is audited against the from-scratch oracle, and
//! every policy's realized cost is compared to the clairvoyant renting
//! lower bound (Kamali & López-Ortiz).
//!
//! Run: `cargo run --release -p cubefit-bench --bin rent [-- --quick]`

use cubefit_bench::write_json;
use cubefit_bench::Mode;
use cubefit_defrag::{DefragObjective, MigrationBudget};
use cubefit_economics::{CostReport, RentConfig};
use cubefit_sim::lifecycle::{self, AuditPolicy, LifecycleConfig, RunOptions};
use cubefit_sim::report::TextTable;
use cubefit_sim::AlgorithmSpec;

/// The seeded fragmentation scenario shared by every cell: γ = 2 CubeFit
/// under 40% departures, audited throughout, with the given renting
/// terms and defrag policy.
fn scenario(ops: u64, rent: RentConfig, every: u64, objective: DefragObjective) -> LifecycleConfig {
    LifecycleConfig {
        departure_percent: 40,
        failure_percent: 0,
        max_failures: 1,
        audit: AuditPolicy::EveryMutation,
        defrag_every: every,
        defrag_budget: MigrationBudget::moves(64),
        defrag_objective: objective,
        rent: Some(rent),
        ..LifecycleConfig::churn(AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }, ops, 17)
    }
}

/// One policy cell: realized cost report plus servers closed by defrag.
fn run_policy(
    ops: u64,
    rent: RentConfig,
    every: u64,
    objective: DefragObjective,
) -> (CostReport, usize) {
    let (report, _) =
        lifecycle::run(&scenario(ops, rent, every, objective), &RunOptions::default())
            .expect("audited churn runs");
    (report.cost.expect("rent is configured"), report.servers_closed_by_defrag)
}

fn ratio_of(cost: &CostReport) -> f64 {
    cubefit_analysis::renting_ratio(cost).map_or(f64::NAN, |r| r.ratio)
}

fn main() {
    let mode = Mode::from_args();
    let ops = if mode.is_quick() { 300 } else { 2_000 };
    let every = 50;
    let blocks_ms: &[u64] = if mode.is_quick() {
        &[600_000, 3_600_000, 86_400_000]
    } else {
        &[60_000, 600_000, 3_600_000, 21_600_000, 86_400_000]
    };

    println!(
        "Renting sweep — {ops} ops of 40%-departure churn (γ=2, K=10, seed 17), audited;\n\
         defrag every {every} ops under a 64-move budget, c4.4xlarge hourly rate\n"
    );
    let mut table = TextTable::new(vec![
        "block",
        "none total $",
        "bins total $",
        "cost total $",
        "bins closed",
        "cost closed",
        "cost ratio",
        "winner",
    ]);
    let mut json_rows = Vec::new();
    let mut bins_sum = 0.0f64;
    let mut cost_sum = 0.0f64;
    let mut strict_wins = 0usize;

    for &block_ms in blocks_ms {
        let rent = RentConfig::c4_4xlarge(block_ms);
        let (none, _) = run_policy(ops, rent, 0, DefragObjective::Bins);
        let (bins, bins_closed) = run_policy(ops, rent, every, DefragObjective::Bins);
        let (cost, cost_closed) =
            run_policy(ops, rent, every, DefragObjective::Cost { horizon_ms: rent.horizon_ms });

        // Self-gate: the economic planner only migrates when the ledger
        // says it pays, so it must never lose badly to blind
        // bin-minimizing. A small tolerance is allowed because the
        // planner is greedy under a finite horizon: on very short blocks
        // nearly every drain pays off, and a horizon-truncated savings
        // estimate can skip a drain that would have paid off later.
        assert!(
            cost.total_usd <= bins.total_usd * 1.02,
            "cost-aware defrag lost to bins-defrag at block {block_ms} ms: \
             {} vs {}",
            cost.total_usd,
            bins.total_usd
        );
        if cost.total_usd < bins.total_usd - 1e-9 {
            strict_wins += 1;
        }
        let ratio = ratio_of(&cost);
        assert!(ratio.is_finite() && ratio >= 1.0, "competitive ratio must be finite and ≥ 1");
        bins_sum += bins.total_usd;
        cost_sum += cost.total_usd;

        let winner = [("none", none.total_usd), ("bins", bins.total_usd), ("cost", cost.total_usd)]
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("-", |(label, _)| label);
        table.row(vec![
            human_block(block_ms),
            format!("{:.2}", none.total_usd),
            format!("{:.2}", bins.total_usd),
            format!("{:.2}", cost.total_usd),
            bins_closed.to_string(),
            cost_closed.to_string(),
            format!("{ratio:.3}"),
            winner.to_owned(),
        ]);
        json_rows.push(serde_json::json!({
            "block_ms": block_ms,
            "none": serde_json::json!({
                "cost": none,
                "competitive_ratio": ratio_of(&none),
            }),
            "bins": serde_json::json!({
                "cost": bins,
                "competitive_ratio": ratio_of(&bins),
                "servers_closed": bins_closed,
            }),
            "cost_aware": serde_json::json!({
                "cost": cost,
                "competitive_ratio": ratio,
                "servers_closed": cost_closed,
            }),
            "audit_divergences": 0usize,
        }));
    }

    assert!(
        strict_wins >= 1,
        "cost-aware defrag must beat bins-defrag outright on at least one block duration"
    );
    // Higher-is-better gate metric for the CI trend comparison: how much
    // cheaper economically-scheduled defrag is than blind defrag across
    // the sweep (1.0 = no advantage).
    let advantage = bins_sum / cost_sum;

    println!("{}", table.render());
    println!(
        "cost-aware defrag won outright on {strict_wins} of {} block durations;",
        blocks_ms.len()
    );
    println!(
        "aggregate bins/cost spend ratio {advantage:.4} (higher favors the economic planner)."
    );
    write_json(
        "BENCH_rent",
        &serde_json::json!({
            "mode": format!("{mode:?}"),
            "scenario_ops": ops,
            "seed": 17,
            "defrag_every": every,
            "rows": json_rows,
            "gate": serde_json::json!({
                "strict_wins": strict_wins,
                "bins_over_cost_advantage": advantage,
            }),
        }),
    );
}

/// Human label for a block duration.
fn human_block(block_ms: u64) -> String {
    match block_ms {
        60_000 => "1 min".to_owned(),
        600_000 => "10 min".to_owned(),
        3_600_000 => "1 h".to_owned(),
        21_600_000 => "6 h".to_owned(),
        86_400_000 => "24 h".to_owned(),
        other => format!("{other} ms"),
    }
}
