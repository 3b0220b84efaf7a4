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

/// FNV-1a over `bytes`, the hash the CLI's golden dump pins use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn baseline_lifecycle_runs_are_pinned() {
    use cubefit_telemetry::{Recorder, VecSink};
    use std::sync::Arc;

    // (γ, index into `algorithms`, final-dump hash, JSONL trace hash),
    // pinned before the six baselines shared one engine. Random Fit's
    // trace is not pinned: it emitted no events then.
    let pins: [(usize, usize, u64, Option<u64>); 12] = [
        (2, 1, 0x1b67_08d4_86a8_00d4, Some(0x47bb_a5db_8675_e2cc)),
        (2, 2, 0x2a17_a6ad_cd9e_c2dc, Some(0xadb2_c449_c307_ae00)),
        (2, 3, 0xd1ec_96a3_4587_5af4, Some(0xcc82_42f4_65d1_169a)),
        (2, 4, 0xe2b0_dbf5_1418_7891, Some(0x8895_4f38_a28f_e0b5)),
        (2, 5, 0x2bfd_22a9_cac7_f0a0, Some(0x22c9_dc29_7196_da43)),
        (2, 6, 0x21b2_d571_cb37_7ac9, None),
        (3, 1, 0x9134_cc4a_f294_ffa9, Some(0x730d_ca0d_479b_c56b)),
        (3, 2, 0xe6ee_2fa3_a722_f3a1, Some(0x664e_7a49_c1de_1c99)),
        (3, 3, 0x0678_ba0d_59ae_4fdb, Some(0x78a1_8493_c9dd_e195)),
        (3, 4, 0x30e3_5d39_27f5_28c4, Some(0x0eaf_ba0a_a96f_90e8)),
        (3, 5, 0x3978_39b4_7ecf_1eec, Some(0x71d3_ed24_a57e_3c39)),
        (3, 6, 0x7ea0_c4c1_1873_701c, None),
    ];
    for (gamma, index, dump_pin, trace_pin) in pins {
        let algorithm = algorithms(gamma)[index].clone();
        let label = algorithm.label();
        let config = LifecycleConfig {
            defrag_every: 40,
            defrag_budget: MigrationBudget::moves(16),
            drift: Some(DriftConfig::mitigated(2, 25, MigrationBudget::moves(8))),
            ..LifecycleConfig::churn(algorithm, 400, 23)
        };
        let sink = Arc::new(VecSink::new());
        let options = RunOptions {
            recorder: Recorder::with_sink(Arc::clone(&sink)),
            ..RunOptions::default()
        };
        let (report, consolidator) = lifecycle::run(&config, &options).unwrap();
        assert!(report.failure.is_none(), "{label}: {:?}", report.failure);
        // Every mutation method ran: remove, update_load, recover, and
        // migrate (through defrag or mitigation epochs).
        let migrations: usize = report.defrag_epochs.iter().map(|e| e.outcome.applied_steps).sum();
        let mitigations: usize =
            report.mitigation_epochs.iter().map(|e| e.outcome.applied_steps).sum();
        assert!(report.departures > 0, "{label}: no removal");
        assert!(report.drift_updates > 0, "{label}: no load update");
        assert!(report.recovery.replicas_migrated > 0, "{label}: no recovery move");
        assert!(migrations + mitigations > 0, "{label}: no migration");
        let dump = PlacementDump::from_placement(consolidator.placement());
        assert_eq!(fnv1a(serde_json::to_string(&dump).unwrap().as_bytes()), dump_pin, "{label}");
        if let Some(trace_pin) = trace_pin {
            let trace: String =
                sink.events().iter().map(|e| serde_json::to_string(e).unwrap() + "\n").collect();
            assert_eq!(fnv1a(trace.as_bytes()), trace_pin, "{label} trace");
        }
    }
}
