//! The cluster failure experiment (Fig. 5 pipeline).
//!
//! §V.B protocol: tenants are added until the placement fills all 69 data
//! servers; `f` servers are failed so as to push the most clients onto a
//! single survivor (the *worst overload case*); the cluster then runs a
//! warm-up and a measurement window and reports the 99th-percentile
//! latency against the 5-second SLA.

use crate::spec::{AlgorithmSpec, DistributionSpec};
use cubefit_cluster::{sim::assignments_from_placement, ClusterSim, QueryMix, SimConfig};
use cubefit_core::{validity, Consolidator, Result, TenantId};
use cubefit_workload::{LoadModel, SequenceBuilder, TenantSpec};
use std::collections::HashMap;

/// Configuration of one failure-experiment cell (one bar of Fig. 5).
#[derive(Debug, Clone)]
pub struct FailureExperimentConfig {
    /// Algorithm under test (the paper runs CubeFit γ=2, CubeFit γ=3 with
    /// `K = 5`, and RFI γ=2 with `μ = 0.85`).
    pub algorithm: AlgorithmSpec,
    /// Client-count distribution (uniform 1–15 or zipf(3), §V.A).
    pub distribution: DistributionSpec,
    /// Data-store servers to fill (the paper's cluster has 69).
    pub servers: usize,
    /// Number of simultaneous worst-case failures to inject.
    pub failures: usize,
    /// SLA in seconds (the paper uses 5.0 at p99).
    pub sla_seconds: f64,
    /// Workload seed.
    pub seed: u64,
    /// Simulation windows.
    pub sim: SimConfig,
}

impl FailureExperimentConfig {
    /// The paper's cell for a given algorithm/distribution/failure count:
    /// 69 servers, 5 s SLA, 5-minute warm-up and measurement.
    #[must_use]
    pub fn paper(
        algorithm: AlgorithmSpec,
        distribution: DistributionSpec,
        failures: usize,
        seed: u64,
    ) -> Self {
        FailureExperimentConfig {
            algorithm,
            distribution,
            servers: 69,
            failures,
            sla_seconds: 5.0,
            seed,
            sim: SimConfig::paper(seed),
        }
    }
}

/// Result of one failure-experiment cell.
#[derive(Debug, Clone)]
pub struct FailureOutcome {
    /// Algorithm label.
    pub algorithm: String,
    /// Distribution label.
    pub distribution: String,
    /// Failures injected.
    pub failures: usize,
    /// Tenants admitted before the placement would exceed the server
    /// budget.
    pub tenants: usize,
    /// Servers actually used by the placement.
    pub servers_used: usize,
    /// Worst per-server p99 latency (seconds) post-failure — the paper's
    /// SLA metric (§IV ties the SLA to each server's capacity).
    pub p99_seconds: f64,
    /// Cluster-wide p99 latency (seconds), for context.
    pub cluster_p99_seconds: f64,
    /// Cluster-wide mean latency (seconds).
    pub mean_seconds: f64,
    /// Whether the SLA guarantee is violated: the worst post-failure
    /// server load exceeds 1.0 (load 1.0 corresponds to the SLA point by
    /// calibration, §IV). The measured [`Self::p99_seconds`] fluctuates a
    /// few percent around `SLA × load`, so the load criterion is the
    /// stable discriminator; Theorem 1 guarantees it holds for CubeFit
    /// with up to `γ−1` failures.
    pub sla_violated: bool,
    /// Clients whose tenant lost every replica.
    pub unavailable_clients: usize,
    /// Worst post-failure *model* load on any server (conservative check
    /// value `level + redirected`, even-split semantics).
    pub worst_model_load: f64,
}

/// Fills a fresh instance of `algorithm` with tenants drawn from
/// `distribution` until all `server_budget` servers are in use — the
/// paper's protocol ("we keep adding tenants until CubeFit fills up all 69
/// data store servers", §V.B). Admission stops the moment the last server
/// opens (or, if a placement would overshoot the budget, just before it),
/// so bins retain the natural slack the paper's measurements reflect.
/// Returns the consolidator and the admitted specs.
///
/// # Errors
///
/// Propagates algorithm construction/placement errors.
pub fn fill_servers(
    algorithm: &AlgorithmSpec,
    distribution: &DistributionSpec,
    server_budget: usize,
    seed: u64,
) -> Result<(Box<dyn Consolidator>, Vec<TenantSpec>)> {
    let model = LoadModel::tpch_xeon();
    // Generous candidate pool; filling 69 servers needs a few hundred
    // tenants at most for the paper's distributions.
    let candidate_count = server_budget * model.max_clients() as usize * 4;
    let sequence = SequenceBuilder::new(
        BoxedClientDistribution(distribution.build(model.max_clients())),
        model,
    )
    .count(candidate_count)
    .seed(seed)
    .build();

    let mut admitted: Vec<TenantSpec> = Vec::new();
    let mut consolidator = algorithm.build()?;
    for spec in sequence.specs() {
        // Near the budget, place on a `clone_box` scratch copy first so an
        // overshooting tenant is simply not admitted — no O(n²) replay of
        // the admitted prefix. A placement opens at most γ bins, so far
        // from the budget the tentative copy is skipped entirely.
        let gamma = consolidator.gamma();
        if consolidator.placement().open_bins() + gamma > server_budget {
            let mut tentative = consolidator.clone_box();
            tentative.place(spec.tenant)?;
            if tentative.placement().open_bins() > server_budget {
                break;
            }
            consolidator = tentative;
        } else {
            consolidator.place(spec.tenant)?;
        }
        admitted.push(*spec);
        if consolidator.placement().open_bins() == server_budget {
            break; // every server is in use: the cluster is "filled up"
        }
    }
    Ok((consolidator, admitted))
}

/// Runs one failure-experiment cell end to end.
///
/// # Errors
///
/// Propagates algorithm construction/placement errors.
pub fn run_failure_experiment(config: &FailureExperimentConfig) -> Result<FailureOutcome> {
    let (consolidator, admitted) =
        fill_servers(&config.algorithm, &config.distribution, config.servers, config.seed)?;
    let placement = consolidator.placement();

    // Worst overload case: the failure set pushing the most load onto a
    // single survivor, under realistic even-split redistribution.
    let failed = validity::worst_failure_set(
        placement,
        config.failures,
        validity::FailoverSemantics::EvenSplit,
    );
    let impact =
        validity::simulate_failures(placement, &failed, validity::FailoverSemantics::EvenSplit);

    let clients: HashMap<TenantId, u32> =
        admitted.iter().map(|s| (s.tenant.id(), s.clients)).collect();
    // Every placed tenant must have a client count; a mismatch between the
    // placement and the admitted specs is a caller bug surfaced as an
    // error, not an opaque panic inside the assignment closure.
    for (id, _, _) in placement.tenants() {
        if !clients.contains_key(&id) {
            return Err(cubefit_core::Error::UnknownTenant { tenant: id });
        }
    }
    let assignments = assignments_from_placement(placement, &|id| clients[&id]);

    let model = LoadModel::tpch_xeon();
    let mix = QueryMix::tpch_like(&model, config.sla_seconds);
    let mut sim = ClusterSim::new(placement.created_bins(), assignments, &mix, &model, config.sim);
    sim.fail_servers(&failed.iter().map(|b| b.index()).collect::<Vec<_>>());
    let unavailable = sim.unavailable_clients();
    let report = sim.run();

    Ok(FailureOutcome {
        algorithm: config.algorithm.label(),
        distribution: config.distribution.label(),
        failures: config.failures,
        tenants: admitted.len(),
        servers_used: placement.open_bins(),
        p99_seconds: report.worst_server_p99(),
        cluster_p99_seconds: report.p99(),
        mean_seconds: report.mean(),
        sla_violated: impact.has_overload(),
        unavailable_clients: unavailable,
        worst_model_load: impact.max_load(),
    })
}

/// Adapter so boxed distributions satisfy the generic sequence builder.
#[derive(Debug)]
struct BoxedClientDistribution(Box<dyn cubefit_workload::ClientDistribution>);

impl cubefit_workload::ClientDistribution for BoxedClientDistribution {
    fn sample_clients(&self, rng: &mut dyn rand::RngCore) -> u32 {
        self.0.sample_clients(rng)
    }

    fn max_clients(&self) -> u32 {
        self.0.max_clients()
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(
        algorithm: AlgorithmSpec,
        failures: usize,
        servers: usize,
    ) -> FailureExperimentConfig {
        FailureExperimentConfig {
            algorithm,
            distribution: DistributionSpec::Uniform { min: 1, max: 15 },
            servers,
            failures,
            sla_seconds: 5.0,
            seed: 11,
            sim: SimConfig::quick(11),
        }
    }

    #[test]
    fn fill_respects_server_budget() {
        let (consolidator, admitted) = fill_servers(
            &AlgorithmSpec::CubeFit { gamma: 2, classes: 5 },
            &DistributionSpec::Uniform { min: 1, max: 15 },
            12,
            3,
        )
        .unwrap();
        assert!(consolidator.placement().open_bins() <= 12);
        assert!(!admitted.is_empty());
        assert_eq!(consolidator.placement().tenant_count(), admitted.len());
    }

    #[test]
    fn cubefit_meets_sla_under_single_failure_small_cluster() {
        let outcome = run_failure_experiment(&quick_config(
            AlgorithmSpec::CubeFit { gamma: 2, classes: 5 },
            1,
            12,
        ))
        .unwrap();
        // Theorem 1 bounds the worst post-failure *model* load by 1.0, and
        // CubeFit can pack right up to that bound, so the worst server can
        // sit exactly at the SLA point; the measured p99 then fluctuates a
        // few percent around the 5 s line while the guarantee itself holds.
        assert!(!outcome.sla_violated);
        assert!(outcome.worst_model_load <= 1.0 + 1e-9);
        assert!(
            outcome.p99_seconds <= 5.0 * 1.05,
            "p99 {} far beyond the boundary",
            outcome.p99_seconds
        );
        assert_eq!(outcome.unavailable_clients, 0);
    }

    #[test]
    fn cubefit_gamma3_meets_sla_under_two_failures_small_cluster() {
        let outcome = run_failure_experiment(&quick_config(
            AlgorithmSpec::CubeFit { gamma: 3, classes: 5 },
            2,
            12,
        ))
        .unwrap();
        assert!(!outcome.sla_violated, "p99 {}", outcome.p99_seconds);
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let run = || {
            run_failure_experiment(&quick_config(
                AlgorithmSpec::CubeFit { gamma: 2, classes: 5 },
                1,
                12,
            ))
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.tenants, b.tenants);
        assert_eq!(a.servers_used, b.servers_used);
        assert_eq!(a.unavailable_clients, b.unavailable_clients);
        assert_eq!(a.sla_violated, b.sla_violated);
        assert!((a.p99_seconds - b.p99_seconds).abs() < 1e-12);
        assert!((a.mean_seconds - b.mean_seconds).abs() < 1e-12);
        assert!((a.worst_model_load - b.worst_model_load).abs() < 1e-12);
    }

    #[test]
    fn zero_failures_baseline_is_healthy() {
        let outcome =
            run_failure_experiment(&quick_config(AlgorithmSpec::Rfi { gamma: 2, mu: 0.85 }, 0, 12))
                .unwrap();
        assert!(!outcome.sla_violated, "p99 {}", outcome.p99_seconds);
        assert_eq!(outcome.failures, 0);
    }
}
