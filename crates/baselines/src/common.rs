//! Shared feasibility logic and telemetry plumbing for baseline packers.

use cubefit_core::smallbuf::SmallBuf;
use cubefit_core::{BinId, Placement, Tenant, TenantId, EPSILON};
use cubefit_telemetry::{Counter, Recorder, TraceEvent};

/// Telemetry handles shared by the baseline packers, resolved once when a
/// recorder is attached so the hot path pays one branch when disabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct BaselineTelemetry {
    pub recorder: Recorder,
    pub placements: Counter,
    pub bins_opened: Counter,
    pub fallbacks: Counter,
}

impl BaselineTelemetry {
    pub fn resolve(recorder: Recorder, algorithm: &str, gamma: usize) -> Self {
        let gamma = gamma.to_string();
        let labels = [("algorithm", algorithm), ("gamma", gamma.as_str())];
        BaselineTelemetry {
            placements: recorder.counter("placements", &labels),
            bins_opened: recorder.counter("bins_opened", &labels),
            fallbacks: recorder.counter("fallbacks", &labels),
            recorder,
        }
    }

    /// Emits the arrival event for `tenant` before placement begins.
    pub fn arrival(&self, tenant: &Tenant, seq: usize) {
        self.recorder.emit(|| TraceEvent::TenantArrived {
            tenant: tenant.id().get(),
            load: tenant.load().get(),
            seq: seq as u64,
        });
    }

    /// The subset of `bins` still empty — i.e. about to receive their
    /// first replica. Call before `place_tenant`, pass to [`Self::opened`]
    /// afterwards so the trace's `BinOpened` count matches the servers a
    /// run reports.
    pub fn pending_opens(&self, placement: &Placement, bins: &[BinId]) -> Vec<BinId> {
        if !self.recorder.is_enabled() {
            return Vec::new();
        }
        bins.iter().copied().filter(|&b| placement.bin(b).is_empty()).collect()
    }

    /// Emits one `BinOpened` per newly non-empty bin.
    pub fn opened(&self, placement: &Placement, pending: &[BinId]) {
        if pending.is_empty() {
            return;
        }
        self.bins_opened.add(pending.len() as u64);
        let total = placement.open_bins();
        let n = pending.len();
        for (i, &bin) in pending.iter().enumerate() {
            self.recorder.emit(|| TraceEvent::BinOpened {
                bin: bin.index(),
                class: None,
                total_open: total - (n - 1 - i),
            });
        }
    }

    /// Emits the terminal `Placed` event and bumps the placements counter.
    pub fn placed(&self, tenant: &Tenant, bins: &[BinId], opened: usize) {
        self.placements.inc();
        self.recorder.emit(|| TraceEvent::Placed {
            tenant: tenant.id().get(),
            bins: bins.iter().map(|b| b.index()).collect(),
            stage: "Direct".to_owned(),
            opened,
        });
    }

    /// Emits `ReplicaMigrated` for one replica of `load` moved off `from`.
    pub fn migrated(&self, tenant: TenantId, from: BinId, to: BinId, load: f64) {
        self.recorder.emit(|| TraceEvent::ReplicaMigrated {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
            load,
        });
    }
}

/// How much failover capacity a packer reserves on each server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReserveMode {
    /// Reserve for the worst *single* server failure (RFI's guarantee).
    SingleFailure,
    /// Reserve for the worst `γ − 1` simultaneous failures (the robustness
    /// level CubeFit provides).
    #[default]
    GammaMinusOne,
}

impl ReserveMode {
    /// Number of simultaneous failures the reserve covers for replication
    /// factor `gamma`.
    #[must_use]
    pub fn failures_covered(self, gamma: usize) -> usize {
        match self {
            ReserveMode::SingleFailure => 1,
            ReserveMode::GammaMinusOne => gamma - 1,
        }
    }
}

/// Whether placing a replica of `size` on `bin` — with the tenant's other
/// replicas tentatively on `siblings` — keeps the bin within capacity *and*
/// preserves the failover reserve required by `reserve`.
///
/// An optional `fill_cap` additionally bounds the bin's plain level (RFI's
/// interleaving parameter `μ`).
#[must_use]
pub fn feasible(
    placement: &Placement,
    bin: BinId,
    size: f64,
    siblings: &[BinId],
    reserve: ReserveMode,
    fill_cap: Option<f64>,
) -> bool {
    let level = placement.level(bin);
    if let Some(cap) = fill_cap {
        if level + size > cap + EPSILON {
            return false;
        }
    }
    if level + size > 1.0 + EPSILON {
        return false;
    }
    // Inline-first adjustments: this runs millions of times inside
    // Best-Fit scans and γ is tiny for the paper's configurations, but the
    // buffer spills to the heap for large γ — truncating siblings here
    // silently shrinks the failover reserve.
    let mut adjustments: SmallBuf<(BinId, f64), 8> = SmallBuf::new((BinId::new(0), 0.0));
    for &sibling in siblings {
        adjustments.push((sibling, size));
    }
    let failover = placement.top_shared_sum_with(
        bin,
        adjustments.as_slice(),
        reserve.failures_covered(placement.gamma()),
    );
    level + size + failover <= 1.0 + EPSILON
}

/// Whether appending `candidate` to the partial assignment `chosen` keeps
/// *every* bin feasible: the candidate itself (given the chosen siblings)
/// and each already-chosen bin (whose shared load the candidate raises).
///
/// Greedy packers must use this — not [`feasible`] alone — when selecting
/// replicas sequentially; otherwise a later replica can silently exhaust an
/// earlier server's failover reserve and force the whole assignment to be
/// abandoned.
#[must_use]
pub fn extends_assignment(
    placement: &Placement,
    chosen: &[BinId],
    candidate: BinId,
    size: f64,
    reserve: ReserveMode,
    fill_cap: Option<f64>,
) -> bool {
    if !feasible(placement, candidate, size, chosen, reserve, fill_cap) {
        return false;
    }
    chosen.iter().enumerate().all(|(i, &bin)| {
        let mut siblings: SmallBuf<BinId, 8> = SmallBuf::new(BinId::new(0));
        for (j, &b) in chosen.iter().enumerate() {
            if j != i {
                siblings.push(b);
            }
        }
        siblings.push(candidate);
        feasible(placement, bin, size, siblings.as_slice(), reserve, fill_cap)
    })
}

/// Re-validates a complete tentative assignment: every bin must remain
/// feasible given *all* of its siblings (later selections raise earlier
/// bins' shared loads).
#[must_use]
pub fn assignment_feasible(
    placement: &Placement,
    bins: &[BinId],
    size: f64,
    reserve: ReserveMode,
    fill_cap: Option<f64>,
) -> bool {
    bins.iter().enumerate().all(|(i, &bin)| {
        let siblings: Vec<BinId> =
            bins.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &b)| b).collect();
        feasible(placement, bin, size, &siblings, reserve, fill_cap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Load, Tenant, TenantId};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    fn placement_with_pair() -> (Placement, Vec<BinId>) {
        let mut p = Placement::new(3);
        let bins: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[bins[0], bins[1], bins[2]]).unwrap();
        (p, bins)
    }

    #[test]
    fn reserve_mode_failure_counts() {
        assert_eq!(ReserveMode::SingleFailure.failures_covered(3), 1);
        assert_eq!(ReserveMode::GammaMinusOne.failures_covered(3), 2);
        assert_eq!(ReserveMode::GammaMinusOne.failures_covered(2), 1);
    }

    #[test]
    fn gamma_reserve_is_stricter_than_single() {
        let (p, bins) = placement_with_pair();
        // bin0: level 0.2, shares 0.2 with bins 1 and 2.
        // Single-failure reserve: 0.2 + s + 0.2 ≤ 1 → s ≤ 0.6.
        // γ−1 reserve: 0.2 + s + 0.4 ≤ 1 → s ≤ 0.4.
        assert!(feasible(&p, bins[0], 0.5, &[], ReserveMode::SingleFailure, None));
        assert!(!feasible(&p, bins[0], 0.5, &[], ReserveMode::GammaMinusOne, None));
        assert!(feasible(&p, bins[0], 0.4, &[], ReserveMode::GammaMinusOne, None));
    }

    #[test]
    fn fill_cap_limits_level() {
        let (p, bins) = placement_with_pair();
        assert!(feasible(&p, bins[0], 0.3, &[], ReserveMode::SingleFailure, Some(0.85)));
        assert!(!feasible(&p, bins[0], 0.7, &[], ReserveMode::SingleFailure, Some(0.85)));
    }

    #[test]
    fn siblings_raise_future_shared_load() {
        let (p, bins) = placement_with_pair();
        // Placing 0.25 on bin0 with a sibling on bin1 raises their mutual
        // share to 0.45: single-failure check 0.2+0.25+0.45 = 0.9 ≤ 1 ok,
        // but with another sibling on bin2 the γ−1 reserve is 0.9 → 1.35.
        assert!(feasible(&p, bins[0], 0.25, &[bins[1]], ReserveMode::SingleFailure, None));
        assert!(!feasible(
            &p,
            bins[0],
            0.25,
            &[bins[1], bins[2]],
            ReserveMode::GammaMinusOne,
            None
        ));
    }

    #[test]
    fn assignment_revalidation_catches_pairwise_overload() {
        let mut p = Placement::new(2);
        let a = p.open_bin(None);
        let b = p.open_bin(None);
        p.place_tenant(&tenant(0, 0.7), &[a, b]).unwrap();
        // Each bin alone admits a 0.3 replica, but the pair (with mutual
        // share 0.35+0.3) does not.
        assert!(feasible(&p, a, 0.3, &[], ReserveMode::GammaMinusOne, None));
        assert!(!assignment_feasible(&p, &[a, b], 0.3, ReserveMode::GammaMinusOne, None));
        assert!(assignment_feasible(&p, &[a, b], 0.1, ReserveMode::GammaMinusOne, None));
    }

    #[test]
    fn feasible_counts_all_siblings_at_large_gamma() {
        // Regression for the 8-entry adjustment truncation (mirror of the
        // m-fit fix): at γ = 12 a full sibling set has 11 entries. True
        // worst case for a 0.06 guest replica on every bin of a 0.4-load
        // tenant is 0.4 + 12·0.06 = 1.12 > 1; counting only 8 siblings
        // gave 0.94 and accepted it.
        let gamma = 12;
        let mut p = Placement::new(gamma);
        let bins: Vec<BinId> = (0..gamma).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.4), &bins).unwrap();
        assert!(!feasible(&p, bins[0], 0.06, &bins[1..], ReserveMode::GammaMinusOne, None));
        assert!(feasible(&p, bins[0], 0.05, &bins[1..], ReserveMode::GammaMinusOne, None));
        // extends_assignment forwards the full sibling set too.
        assert!(!extends_assignment(
            &p,
            &bins[1..],
            bins[0],
            0.06,
            ReserveMode::GammaMinusOne,
            None
        ));
        assert!(extends_assignment(
            &p,
            &bins[1..],
            bins[0],
            0.05,
            ReserveMode::GammaMinusOne,
            None
        ));
        // The whole-assignment re-validation agrees.
        assert!(!assignment_feasible(&p, &bins, 0.06, ReserveMode::GammaMinusOne, None));
        assert!(assignment_feasible(&p, &bins, 0.05, ReserveMode::GammaMinusOne, None));
    }

    #[test]
    fn empty_bin_always_feasible_within_cap() {
        let (p, bins) = placement_with_pair();
        assert!(feasible(&p, bins[3], 1.0 / 3.0, &[], ReserveMode::GammaMinusOne, None));
    }
}
