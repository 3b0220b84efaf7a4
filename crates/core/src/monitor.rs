//! The invariant monitor: per-server Theorem-1 health classification.
//!
//! [`crate::validity::check`] answers a boolean question — does the
//! placement survive any `γ − 1` failures *right now*? Under load drift
//! that is not enough: a server can be technically robust but one small
//! upward re-estimate away from violation. The monitor grades every
//! non-empty server on the same worst-case failure set into three states:
//!
//! * [`ServerState::Safe`] — margin comfortably above the configured
//!   at-risk threshold;
//! * [`ServerState::AtRisk`] — still robust, but the slack
//!   `1 − level − worst_failover` has shrunk below the threshold, so the
//!   next drift step may breach Theorem 1;
//! * [`ServerState::Violated`] — the worst-case failover load already
//!   exceeds capacity (the deficit says by how much).
//!
//! The grade reads the same [`validity::margin`] and
//! [`validity::is_violation`] test as [`crate::validity::check`], so the
//! violated servers are exactly the check's violations by construction.
//!
//! The mitigation planner consumes a [`MonitorReport`] and drains the
//! worst-slack servers first; telemetry gauges expose the state counts.

use crate::bin::BinId;
use crate::placement::Placement;
use crate::validity;

/// Default slack threshold below which a robust server counts as at-risk.
///
/// 5% of a unit server: small enough that healthy consolidated placements
/// (which routinely run near capacity) are not flagged wholesale, large
/// enough that a single drifting tenant rarely jumps from `Safe` straight
/// past `AtRisk` into violation.
pub const DEFAULT_AT_RISK_SLACK: f64 = 0.05;

/// Theorem-1 health of one server under the worst-case failure set.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ServerState {
    /// `level + worst_failover ≤ 1` with slack above the threshold.
    Safe,
    /// Still robust, but remaining slack is below the at-risk threshold.
    AtRisk {
        /// Remaining slack `1 − level − worst_failover` (non-negative).
        slack: f64,
    },
    /// Theorem 1 is violated: worst-case failover overloads the server.
    Violated {
        /// Overload depth `level + worst_failover − 1` (positive).
        deficit: f64,
    },
}

impl ServerState {
    /// Whether the server is in violation.
    #[must_use]
    pub fn is_violated(&self) -> bool {
        matches!(self, ServerState::Violated { .. })
    }

    /// Whether the server needs mitigation attention (at risk or violated).
    #[must_use]
    pub fn needs_attention(&self) -> bool {
        !matches!(self, ServerState::Safe)
    }
}

/// One graded server.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ServerHealth {
    /// The server.
    pub bin: BinId,
    /// Its current level.
    pub level: f64,
    /// Worst-case failover load onto it.
    pub worst_failover: f64,
    /// Margin `1 − level − worst_failover` (negative iff violated).
    pub margin: f64,
    /// The classification.
    pub state: ServerState,
}

/// The monitor's verdict over a whole placement.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MonitorReport {
    /// Slack threshold the grading used.
    pub at_risk_slack: f64,
    /// Non-empty servers graded.
    pub checked_bins: usize,
    /// Servers classified safe.
    pub safe: usize,
    /// At-risk servers with their remaining slack, worst (smallest slack)
    /// first.
    pub at_risk: Vec<(BinId, f64)>,
    /// Violated servers with their overload deficit, worst (largest
    /// deficit) first.
    pub violated: Vec<(BinId, f64)>,
    /// Smallest margin over all graded servers (`1.0` when none).
    pub worst_margin: f64,
}

impl MonitorReport {
    /// Whether every server is robust (none violated; at-risk still counts
    /// as robust).
    #[must_use]
    pub fn is_robust(&self) -> bool {
        self.violated.is_empty()
    }

    /// Servers needing mitigation, worst first: every violated server
    /// (deepest deficit first), then every at-risk server (smallest slack
    /// first).
    #[must_use]
    pub fn attention_order(&self) -> Vec<BinId> {
        self.violated
            .iter()
            .map(|&(bin, _)| bin)
            .chain(self.at_risk.iter().map(|&(bin, _)| bin))
            .collect()
    }
}

/// Grades one server of `placement` against the Theorem-1 worst-case
/// failure set, using `at_risk_slack` as the safe/at-risk boundary.
#[must_use]
pub fn classify_bin(placement: &Placement, bin: BinId, at_risk_slack: f64) -> ServerHealth {
    let level = placement.level(bin);
    let worst_failover = placement.worst_failover(bin);
    let margin = validity::margin(level, worst_failover);
    let state = if validity::is_violation(margin) {
        ServerState::Violated { deficit: -margin }
    } else if margin < at_risk_slack {
        ServerState::AtRisk { slack: margin.max(0.0) }
    } else {
        ServerState::Safe
    };
    ServerHealth { bin, level, worst_failover, margin, state }
}

/// Grades every non-empty server of `placement` with the
/// [`DEFAULT_AT_RISK_SLACK`] threshold.
#[must_use]
pub fn classify(placement: &Placement) -> MonitorReport {
    classify_with(placement, DEFAULT_AT_RISK_SLACK)
}

/// Grades every non-empty server of `placement`, counting a robust server
/// as at-risk when its slack falls below `at_risk_slack`.
#[must_use]
pub fn classify_with(placement: &Placement, at_risk_slack: f64) -> MonitorReport {
    let mut safe = 0;
    let mut at_risk: Vec<(BinId, f64)> = Vec::new();
    let mut violated: Vec<(BinId, f64)> = Vec::new();
    let mut checked = 0;
    let mut worst_margin = f64::INFINITY;
    for bin in placement.bins() {
        if bin.is_empty() {
            continue;
        }
        checked += 1;
        let health = classify_bin(placement, bin.id(), at_risk_slack);
        worst_margin = worst_margin.min(health.margin);
        match health.state {
            ServerState::Safe => safe += 1,
            ServerState::AtRisk { slack } => at_risk.push((health.bin, slack)),
            ServerState::Violated { deficit } => violated.push((health.bin, deficit)),
        }
    }
    at_risk.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    violated.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if checked == 0 {
        worst_margin = 1.0;
    }
    MonitorReport { at_risk_slack, checked_bins: checked, safe, at_risk, violated, worst_margin }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;
    use crate::tenant::{Tenant, TenantId};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// γ = 2, two bins sharing one tenant: level = load/2 each, failover =
    /// load/2, so margin = 1 − load.
    fn pair(load: f64) -> (Placement, Vec<BinId>) {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..2).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, load), &[b[0], b[1]]).unwrap();
        (p, b)
    }

    #[test]
    fn classifies_safe_at_risk_and_violated() {
        let (p, b) = pair(0.5);
        let health = classify_bin(&p, b[0], DEFAULT_AT_RISK_SLACK);
        assert_eq!(health.state, ServerState::Safe);
        assert!((health.margin - 0.5).abs() < 1e-12);

        let (p, b) = pair(0.98);
        match classify_bin(&p, b[0], DEFAULT_AT_RISK_SLACK).state {
            ServerState::AtRisk { slack } => assert!((slack - 0.02).abs() < 1e-12),
            other => panic!("expected AtRisk, got {other:?}"),
        }

        // Drift tenant 0 upward past capacity: both bins violate.
        let (mut p, b) = pair(0.9);
        p.update_load(TenantId::new(0), 1.0).unwrap();
        p.place_tenant(&tenant(1, 0.2), &[b[0], b[1]]).unwrap();
        match classify_bin(&p, b[0], DEFAULT_AT_RISK_SLACK).state {
            ServerState::Violated { deficit } => assert!((deficit - 0.2).abs() < 1e-12),
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn report_counts_and_orders_states() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..6).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.4), &[b[0], b[1]]).unwrap(); // safe pair
        p.place_tenant(&tenant(1, 0.97), &[b[2], b[3]]).unwrap(); // at-risk pair
        p.place_tenant(&tenant(2, 0.8), &[b[4], b[5]]).unwrap();
        p.place_tenant(&tenant(3, 0.4), &[b[4], b[5]]).unwrap(); // violated pair
        let report = classify(&p);
        assert_eq!(report.checked_bins, 6);
        assert_eq!(report.safe, 2);
        assert_eq!(report.at_risk.len(), 2);
        assert_eq!(report.violated.len(), 2);
        assert!(!report.is_robust());
        assert!((report.worst_margin - (-0.2)).abs() < 1e-12);
        // Violated servers lead the attention order.
        let order = report.attention_order();
        assert_eq!(order.len(), 4);
        assert!(order[..2].contains(&b[4]) && order[..2].contains(&b[5]));
        // The monitor's verdict agrees with the boolean checker.
        assert_eq!(report.is_robust(), p.is_robust());
    }

    #[test]
    fn monitor_agrees_with_validity_checker() {
        for load in [0.1, 0.5, 0.9, 0.999, 1.0] {
            let (p, _) = pair(load);
            let report = classify(&p);
            assert_eq!(report.is_robust(), p.is_robust(), "load {load}");
            let validity = crate::validity::check(&p);
            assert!((report.worst_margin - validity.worst_margin).abs() < 1e-12);
            assert_eq!(report.violated.len(), validity.violations.len());
        }
    }

    #[test]
    fn empty_placement_is_trivially_safe() {
        let report = classify(&Placement::new(3));
        assert_eq!(report.checked_bins, 0);
        assert!(report.is_robust());
        assert_eq!(report.worst_margin, 1.0);
        assert!(report.attention_order().is_empty());
    }

    #[test]
    fn threshold_is_configurable() {
        let (p, _) = pair(0.8); // margin 0.2 everywhere
        assert_eq!(classify_with(&p, 0.1).at_risk.len(), 0);
        assert_eq!(classify_with(&p, 0.3).at_risk.len(), 2);
        let report = classify_with(&p, 0.3);
        assert!((report.at_risk_slack - 0.3).abs() < 1e-12);
        assert_eq!(report.safe, 0);
    }

    #[test]
    fn exact_capacity_counts_as_at_risk_not_violated() {
        let (p, b) = pair(1.0); // margin exactly 0
        let health = classify_bin(&p, b[0], DEFAULT_AT_RISK_SLACK);
        match health.state {
            ServerState::AtRisk { slack } => assert_eq!(slack, 0.0),
            other => panic!("expected AtRisk at exact capacity, got {other:?}"),
        }
        assert!(!health.state.is_violated());
        assert!(health.state.needs_attention());
    }
}
