//! # cubefit-audit
//!
//! Differential test layer for the workspace's consolidation algorithms.
//!
//! Every algorithm relies on the same incremental bookkeeping
//! (the shared-load index of [`cubefit_core::shared`] behind
//! [`cubefit_core::Placement`]) for levels, pairwise shared loads and
//! cached failover reserves. This crate assembles each algorithm behind an
//! [`AuditedConsolidator`], which recomputes all of those quantities from
//! scratch with [`cubefit_core::Oracle`] after every placement and panics
//! with a replayable trace on divergence. The proptest suite in
//! `tests/differential.rs` drives random tenant streams through every
//! algorithm for `γ ∈ 2..=16` — the regime where fixed-size fast-path
//! buffers used to truncate silently.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use cubefit_baselines::{BestFit, FirstFit, NextFit, RandomFit, Rfi, WorstFit};
use cubefit_core::{AuditedConsolidator, Consolidator, CubeFit, CubeFitConfig};

/// Interleaving cap `μ` used for RFI throughout the suite (the paper's
/// recommended 0.85).
pub const RFI_MU: f64 = 0.85;

/// A CubeFit class count that is safe for replication factor `gamma`.
///
/// Cube addressing eagerly allocates `τ^(γ−1)` slot options per class
/// group, so the class counts the paper uses for small `γ` explode at
/// `γ = 16` (`4^15` slots). The audit suite cares about the shared-load
/// bookkeeping, not packing quality, so it scales `K` down as `γ` grows:
/// at `K = 2` only the tiny class and `τ = 1` remain and every group is a
/// single slot.
#[must_use]
pub fn classes_for(gamma: usize) -> usize {
    match gamma {
        0..=4 => 5,
        5..=8 => 3,
        _ => 2,
    }
}

/// Every consolidation algorithm in the workspace, configured for
/// replication factor `gamma`, as trait objects.
///
/// RFI keeps its single-failure reserve (it is *expected* to lose
/// robustness for `γ > 2`; its bookkeeping must still agree with the
/// oracle). `seed` feeds RandomFit so runs are reproducible.
///
/// # Panics
///
/// Panics if `gamma < 2` — the suite only drives valid replication
/// factors.
#[must_use]
pub fn algorithms(gamma: usize, seed: u64) -> Vec<Box<dyn Consolidator>> {
    let config = CubeFitConfig::builder()
        .replication(gamma)
        .classes(classes_for(gamma))
        .build()
        .expect("audit config must be valid");
    vec![
        Box::new(CubeFit::new(config)),
        Box::new(Rfi::new(gamma, RFI_MU).expect("gamma >= 2")),
        Box::new(BestFit::new(gamma).expect("gamma >= 2")),
        Box::new(FirstFit::new(gamma).expect("gamma >= 2")),
        Box::new(WorstFit::new(gamma).expect("gamma >= 2")),
        Box::new(NextFit::new(gamma).expect("gamma >= 2")),
        Box::new(RandomFit::new(gamma, seed).expect("gamma >= 2")),
    ]
}

/// Same as [`algorithms`], with each algorithm wrapped in an
/// [`AuditedConsolidator`] that cross-checks the placement against the
/// oracle after every accepted tenant.
#[must_use]
pub fn audited_algorithms(gamma: usize, seed: u64) -> Vec<AuditedConsolidator> {
    algorithms(gamma, seed).into_iter().map(AuditedConsolidator::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_shrink_with_gamma() {
        assert_eq!(classes_for(2), 5);
        assert_eq!(classes_for(4), 5);
        assert_eq!(classes_for(8), 3);
        assert_eq!(classes_for(16), 2);
    }

    #[test]
    fn builds_every_algorithm_for_the_gamma_range() {
        for gamma in 2..=16 {
            let algos = audited_algorithms(gamma, 7);
            assert_eq!(algos.len(), 7);
            for a in &algos {
                assert_eq!(a.gamma(), gamma, "{} at gamma {gamma}", a.name());
            }
        }
    }
}
