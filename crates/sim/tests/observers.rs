//! Audits and journaling are observers: whatever the audit policy, and
//! with or without a write-ahead journal, a seeded lifecycle run ends in
//! the byte-identical placement after the same op mix.

use cubefit_core::PlacementDump;
use cubefit_defrag::MigrationBudget;
use cubefit_durability::{FsyncPolicy, Journal};
use cubefit_sim::lifecycle::{self, AuditPolicy, DriftConfig, LifecycleConfig, RunOptions};
use cubefit_sim::AlgorithmSpec;

fn algorithms(gamma: usize) -> [AlgorithmSpec; 7] {
    [
        AlgorithmSpec::CubeFit { gamma, classes: 5 },
        AlgorithmSpec::Rfi { gamma, mu: 0.85 },
        AlgorithmSpec::BestFit { gamma },
        AlgorithmSpec::FirstFit { gamma },
        AlgorithmSpec::WorstFit { gamma },
        AlgorithmSpec::NextFit { gamma },
        AlgorithmSpec::RandomFit { gamma, seed: 5 },
    ]
}

#[test]
fn audit_policy_and_journal_never_change_the_run() {
    let root = std::env::temp_dir().join(format!("cubefit-observer-tests-{}", std::process::id()));
    for gamma in [2, 3] {
        for algorithm in algorithms(gamma) {
            // Every mutation kind: arrivals, departures, failure recovery,
            // drift updates, mitigation and defrag migrations.
            let base = LifecycleConfig {
                defrag_every: 40,
                defrag_budget: MigrationBudget::moves(16),
                drift: Some(DriftConfig::mitigated(2, 25, MigrationBudget::moves(8))),
                ..LifecycleConfig::churn(algorithm, 160, 19)
            };
            let mut runs = Vec::new();
            for audit in
                [AuditPolicy::Off, AuditPolicy::Sampled { every: 1 }, AuditPolicy::EveryMutation]
            {
                for journaled in [false, true] {
                    let config = LifecycleConfig { audit, ..base.clone() };
                    let journal = journaled.then(|| {
                        let dir = root.join(format!("{}-{audit:?}", config.algorithm.label()));
                        let _ = std::fs::remove_dir_all(&dir);
                        Journal::create(&dir, gamma, FsyncPolicy::Never).unwrap()
                    });
                    let options = RunOptions { journal, ..RunOptions::default() };
                    let (report, consolidator) = lifecycle::run(&config, &options).unwrap();
                    assert!(report.failure.is_none(), "{audit:?}: {:?}", report.failure);
                    let dump = PlacementDump::from_placement(consolidator.placement());
                    runs.push((
                        (audit, journaled),
                        serde_json::to_string(&dump).unwrap(),
                        (report.arrivals, report.departures, report.failure_events),
                    ));
                }
            }
            let (_, dump, counts) = &runs[0];
            for (setup, other_dump, other_counts) in &runs[1..] {
                assert_eq!(other_dump, dump, "{} γ={gamma} {setup:?}", base.algorithm.label());
                assert_eq!(other_counts, counts, "{} γ={gamma} {setup:?}", base.algorithm.label());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
