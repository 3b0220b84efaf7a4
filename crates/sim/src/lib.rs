//! # cubefit-sim
//!
//! Experiment harness for the CubeFit reproduction: everything §V of the
//! paper does around the algorithms.
//!
//! * [`runner`] — drive any [`cubefit_core::Consolidator`] over a generated
//!   tenant sequence, timing placement and collecting placement statistics;
//! * [`spec`] — declarative [`spec::AlgorithmSpec`] /
//!   [`spec::DistributionSpec`] descriptions so experiments are data, not
//!   code;
//! * [`experiment`] — multi-seed paired comparisons with 95% confidence
//!   intervals (Fig. 6);
//! * [`failure`] — the cluster failure experiment pipeline: fill 69
//!   servers, select the worst-overload failure set, simulate, report p99
//!   (Fig. 5);
//! * [`lifecycle`] — the one seeded arrival/departure/failure driver:
//!   online re-replication with recovery-cost and degraded-window
//!   accounting, drift and mitigation, defrag epochs, rent, per-mutation
//!   or sampled oracle audits, streaming checkpoints, journaling, and
//!   failure scenarios that replay and shrink to pinned regressions;
//! * [`crash`] — deterministic crash-injection for the durability layer:
//!   journaled lifecycle prefixes killed mid-run (clean, torn-tail, or
//!   bit-flipped) whose recovery must be byte-identical and audit-clean;
//! * [`serve`] — the deterministic DES load harness for the placement
//!   service: seeded open/closed-loop clients, burst storms, latency and
//!   shed-rate reporting against the service's SLO;
//! * [`cost`] — the EC2 cost model behind Table I;
//! * [`stats`] — mean/stddev/CI helpers;
//! * [`report`] — plain-text table rendering and JSON output for the bench
//!   binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cost;
pub mod crash;
pub mod experiment;
pub mod failure;
pub mod lifecycle;
pub mod report;
pub mod runner;
pub mod serve;
pub mod spec;
pub mod stats;

pub use cost::CostModel;
pub use crash::{run_crash_plan, CrashFault, CrashOutcome, CrashPlan, CrashVerdict};
pub use cubefit_economics::{CostReport, RentConfig};
pub use experiment::{compare, ComparisonConfig, ComparisonResult};
pub use failure::{run_failure_experiment, FailureExperimentConfig, FailureOutcome};
pub use lifecycle::{
    replay, shrink, AuditPolicy, DefragEpoch, DriftConfig, LifecycleConfig, LifecycleReport,
    MitigationEpoch, RunFailure, RunOptions, Scenario, ShrinkOutcome,
};
pub use runner::{run_sequence, run_sequence_batched, run_sequence_with, RunResult};
pub use serve::{
    run_serve, LatencySummary, ServeConfig, ServeReport, ServeRun, ServiceCost, StormProfile,
};
pub use spec::{AlgorithmSpec, DistributionSpec};
pub use stats::Summary;
