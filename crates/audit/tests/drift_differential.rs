//! Drift differential suite: tenant loads change *in place* via
//! [`Consolidator::update_load`], and every piece of incremental
//! bookkeeping — levels, pairwise shared loads, fragmentation statistics,
//! the monitor's violated set — must keep agreeing with a from-scratch
//! oracle recompute.
//!
//! The churn suite covers `remove`/`recover` and the defrag suite covers
//! `migrate`; this suite targets the *re-estimation* path added by the
//! drift engine, plus the mitigation planner's graceful-degradation
//! contract: a drifted placement that provably violates Theorem 1 must be
//! fully repaired under a sufficient migration budget, and under an
//! insufficient one the planner must not panic and its [`ResidualRisk`]
//! must name exactly the servers the validity oracle still flags.

use cubefit_audit::audited_algorithms;
use cubefit_core::monitor::{classify, DEFAULT_AT_RISK_SLACK};
use cubefit_core::{
    validity, AuditedConsolidator, BinId, Consolidator, CubeFit, CubeFitConfig, FragmentationStats,
    Load, Oracle, Placement, Tenant, TenantId, EPSILON,
};
use cubefit_defrag::{apply_mitigation, plan_mitigation, plan_mitigation_with, MigrationBudget};
use cubefit_telemetry::Recorder;
use cubefit_workload::{DriftEngine, DriftProfile, LoadModel};
use proptest::prelude::*;
use std::collections::HashMap;

/// Self-contained LCG so the op interleaving is a pure function of the
/// proptest-drawn seed (the shim draws only scalars, not op sequences).
struct OpRng(u64);

impl OpRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() % (1u64 << 53)) as f64 / (1u64 << 53) as f64
    }
}

/// Recomputes [`Placement::fragmentation`] from first principles: walk the
/// tenant records, accrue `load/γ` per hosting bin, and apply the
/// documented formulas to the from-scratch levels.
fn fragmentation_oracle(placement: &Placement) -> FragmentationStats {
    let gamma = placement.gamma() as f64;
    let mut levels: HashMap<BinId, f64> = HashMap::new();
    let mut total_load = 0.0;
    for (_, load, bins) in placement.tenants() {
        total_load += load;
        for &bin in bins {
            *levels.entry(bin).or_insert(0.0) += load / gamma;
        }
    }
    let mut fills: Vec<f64> = levels.values().copied().collect();
    fills.sort_by(f64::total_cmp);
    let open_bins = fills.len();
    let mean_fill = if open_bins == 0 { 0.0 } else { total_load / open_bins as f64 };
    let p10_fill = if open_bins == 0 {
        0.0
    } else {
        let rank = ((open_bins as f64) * 0.10).ceil().max(1.0) as usize;
        fills[rank - 1]
    };
    let floor = total_load.ceil().max(1.0);
    let fragmentation_ratio = if open_bins == 0 { 1.0 } else { open_bins as f64 / floor };
    FragmentationStats { open_bins, total_load, mean_fill, p10_fill, fragmentation_ratio }
}

fn assert_fragmentation_matches(placement: &Placement, context: &str) {
    let incremental = placement.fragmentation();
    let reference = fragmentation_oracle(placement);
    assert_eq!(incremental.open_bins, reference.open_bins, "{context}: open_bins");
    for (label, a, b) in [
        ("total_load", incremental.total_load, reference.total_load),
        ("mean_fill", incremental.mean_fill, reference.mean_fill),
        ("p10_fill", incremental.p10_fill, reference.p10_fill),
        ("fragmentation_ratio", incremental.fragmentation_ratio, reference.fragmentation_ratio),
    ] {
        assert!((a - b).abs() < 1e-9, "{context}: {label} diverged ({a} vs {b})");
    }
}

/// Drives one algorithm through a seeded arrive/depart/update_load mix.
/// The [`AuditedConsolidator`] wrapper replays levels and shared loads
/// against the oracle after every single op; this driver layers the
/// fragmentation-statistics and robustness-verdict cross-checks on top.
fn drift_mix(algo: &mut dyn Consolidator, ops: usize, seed: u64) {
    let mut rng = OpRng(seed | 1);
    let mut alive: Vec<TenantId> = Vec::new();
    let mut next_id = 0u64;
    for op in 0..ops {
        let roll = rng.below(100);
        if roll < 30 && !alive.is_empty() {
            // Drift one alive tenant to a fresh load in (0, 1].
            let tenant = alive[rng.below(alive.len())];
            let new_load = rng.unit().max(1e-4);
            let outcome = algo.update_load(tenant, new_load).expect("alive tenants re-estimate");
            assert_eq!(outcome.tenant, tenant);
            assert!((outcome.new_load - new_load).abs() < EPSILON);
            assert_eq!(
                algo.placement().tenant_load(tenant),
                Some(new_load),
                "{}: update_load did not stick at op {op}",
                algo.name()
            );
        } else if roll < 50 && alive.len() > 1 {
            let tenant = alive.swap_remove(rng.below(alive.len()));
            algo.remove(tenant).expect("alive tenants depart");
        } else {
            let load = rng.unit().max(1e-4);
            let tenant = Tenant::new(TenantId::new(next_id), Load::new(load).unwrap());
            next_id += 1;
            algo.place(tenant).expect("arrivals place");
            alive.push(tenant.id());
        }
    }
    assert_fragmentation_matches(algo.placement(), algo.name());
    let oracle = Oracle::rebuild(algo.placement());
    assert_eq!(
        algo.placement().is_robust(),
        oracle.is_robust(),
        "{}: robustness verdict diverged after a drift mix",
        algo.name()
    );
    // The monitor's violated set is exactly the validity oracle's.
    let monitor = classify(algo.placement());
    let mut flagged: Vec<BinId> = monitor.violated.iter().map(|&(bin, _)| bin).collect();
    flagged.sort_unstable();
    let mut reference: Vec<BinId> =
        validity::check(algo.placement()).violations.iter().map(|v| v.bin).collect();
    reference.sort_unstable();
    assert_eq!(flagged, reference, "{}: monitor and validity oracle disagree", algo.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every algorithm's incremental bookkeeping survives arbitrary
    /// arrive/depart/update_load interleavings at the paper's replication
    /// range, audited against the oracle after every op.
    #[test]
    fn drift_mixes_stay_oracle_consistent_at_paper_gammas(
        gamma in 2usize..=3,
        ops in 30usize..120,
        seed in any::<u64>(),
    ) {
        for mut algo in audited_algorithms(gamma, seed) {
            drift_mix(&mut algo, ops, seed);
        }
    }

    /// Wide-sibling regime: at large γ an update touches γ bins and
    /// γ·(γ−1) shared-load entries per event — the paths where fixed-size
    /// buffers used to truncate silently.
    #[test]
    fn large_gamma_drift_stays_sound(
        gamma in 10usize..=16,
        ops in 20usize..60,
        seed in any::<u64>(),
    ) {
        for mut algo in audited_algorithms(gamma, seed) {
            drift_mix(&mut algo, ops, seed);
        }
    }

    /// Fragmentation statistics agree with the from-scratch recompute
    /// after arbitrary arrive/depart/migrate/update_load sequences driven
    /// directly against a raw [`Placement`].
    #[test]
    fn fragmentation_stats_match_oracle_recompute(
        gamma in 2usize..=4,
        ops in 20usize..100,
        seed in any::<u64>(),
    ) {
        let mut placement = Placement::new(gamma);
        let mut rng = OpRng(seed | 1);
        let mut alive: Vec<TenantId> = Vec::new();
        let mut next_id = 0u64;
        for op in 0..ops {
            let roll = rng.below(100);
            if roll < 20 && !alive.is_empty() {
                let tenant = alive[rng.below(alive.len())];
                placement.update_load(tenant, rng.unit().max(1e-4)).unwrap();
            } else if roll < 35 && !alive.is_empty() {
                let tenant = alive.swap_remove(rng.below(alive.len()));
                placement.remove_tenant(tenant).unwrap();
            } else if roll < 50 && !alive.is_empty() {
                // Migrate one replica of a random tenant to a fresh bin.
                let tenant = alive[rng.below(alive.len())];
                let bins = placement.tenant_bins(tenant).unwrap().to_vec();
                let from = bins[rng.below(bins.len())];
                let to = placement.open_bin(None);
                placement.move_replica(tenant, from, to).unwrap();
            } else {
                let tenant =
                    Tenant::new(TenantId::new(next_id), Load::new(rng.unit().max(1e-4)).unwrap());
                next_id += 1;
                let bins: Vec<BinId> = (0..gamma).map(|_| placement.open_bin(None)).collect();
                placement.place_tenant(&tenant, &bins).unwrap();
                alive.push(tenant.id());
            }
            if op % 10 == 0 {
                assert_fragmentation_matches(&placement, "mid-sequence");
            }
        }
        assert_fragmentation_matches(&placement, "final");
    }
}

/// The pinned drift scenario: γ = 2 CubeFit, twelve 0.3-load tenants plus
/// spare servers (created by placing and removing heavy tenants), then a
/// deterministic flash crowd drives tenants 0–3 from 0.3 to 0.9 through
/// the audited `update_load` path.
fn drifted_scenario() -> AuditedConsolidator {
    let config = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
    let mut algo: AuditedConsolidator = AuditedConsolidator::new(Box::new(CubeFit::new(config)));
    for id in 0..12u64 {
        algo.place(Tenant::new(TenantId::new(id), Load::new(0.3).unwrap())).unwrap();
    }
    // Open headroom the mitigation planner may drain into, then free it.
    for id in 100..108u64 {
        algo.place(Tenant::new(TenantId::new(id), Load::new(0.9).unwrap())).unwrap();
    }
    for id in 100..108u64 {
        algo.remove(TenantId::new(id)).unwrap();
    }
    assert!(algo.placement().is_robust(), "the scenario starts robust");

    // A burst of +6 clients on a normalized 10-client model maps 0.3 → 0.9
    // deterministically (probability 1.0 fires on the first step).
    let mut engine = DriftEngine::new(
        LoadModel::normalized(10),
        DriftProfile::Burst { magnitude: 6, probability: 1.0 },
        1,
    );
    for id in 0..4u64 {
        engine.track(TenantId::new(id), 3);
    }
    let updates = engine.step();
    assert_eq!(updates.len(), 4, "all four tracked tenants burst");
    for update in updates {
        assert!((update.load - 0.9).abs() < EPSILON);
        algo.update_load(update.tenant, update.load).unwrap();
    }
    algo
}

/// Unmitigated drift provably violates Theorem 1 — confirmed by the
/// incremental check, the from-scratch oracle, and the validity report.
#[test]
fn pinned_drift_scenario_violates_theorem_1_unmitigated() {
    let algo = drifted_scenario();
    assert!(!algo.placement().is_robust());
    assert!(!Oracle::rebuild(algo.placement()).is_robust(), "oracle confirms the violation");
    let report = validity::check(algo.placement());
    assert!(!report.is_robust());
    assert!(report.worst_margin < -EPSILON);
    let monitor = classify(algo.placement());
    assert!(!monitor.violated.is_empty());
}

/// With a sufficient budget, an audited mitigation pass (every migration
/// replayed against the oracle) leaves zero violated servers.
#[test]
fn sufficient_budget_mitigation_clears_every_violation() {
    let mut algo = drifted_scenario();
    let plan = plan_mitigation(algo.placement(), MigrationBudget::unlimited());
    assert!(!plan.is_empty());
    let outcome = apply_mitigation(&mut algo, &plan, &Recorder::disabled()).unwrap();
    assert!(!outcome.aborted);
    assert!(outcome.residual.violated.is_empty(), "residual: {:?}", outcome.residual);
    assert_eq!(classify(algo.placement()).violated.len(), 0);
    assert!(algo.placement().is_robust());
    assert!(Oracle::rebuild(algo.placement()).is_robust(), "oracle confirms the cure");
    assert!(validity::check(algo.placement()).is_robust());
}

/// With an insufficient budget the planner degrades gracefully: no panic,
/// and the reported residual names exactly the servers the validity oracle
/// still flags as violated after the partial repair.
#[test]
fn insufficient_budget_residual_matches_the_oracle_exactly() {
    for moves in [0usize, 1, 2] {
        let mut algo = drifted_scenario();
        let plan = plan_mitigation_with(
            algo.placement(),
            MigrationBudget::moves(moves),
            DEFAULT_AT_RISK_SLACK,
        );
        assert!(plan.steps.len() <= moves, "budget of {moves} moves exceeded");
        let outcome = apply_mitigation(&mut algo, &plan, &Recorder::disabled()).unwrap();
        assert!(!outcome.aborted);

        let mut residual: Vec<BinId> =
            outcome.residual.violated.iter().map(|&(bin, _)| bin).collect();
        residual.sort_unstable();
        let mut reference: Vec<BinId> =
            validity::check(algo.placement()).violations.iter().map(|v| v.bin).collect();
        reference.sort_unstable();
        assert_eq!(
            residual, reference,
            "budget {moves}: residual risk must match the oracle's violated set"
        );
        assert!(!residual.is_empty(), "budget {moves} cannot fully repair the pinned scenario");
    }
}
