//! Online re-replication after server failures.
//!
//! When a set of at most `γ − 1` servers fails simultaneously, every tenant
//! keeps at least one live replica (replicas sit on distinct servers), but
//! the placement is *degraded*: the failed replicas' load is served by
//! survivors and Theorem 1 no longer bounds a further failure. Recovery
//! re-homes each orphaned replica onto a surviving — or freshly opened —
//! server through the same robustness predicate used for placement, so the
//! γ−1-failure guarantee holds again once recovery completes.
//!
//! The module provides the algorithm-independent pieces: enumerating
//! orphans ([`orphans`]), the conservative per-move feasibility predicate
//! ([`move_feasible`]), candidate selection ([`pick_target`]) and the
//! sequential driver ([`recover_replicas`]) that applies moves via
//! [`Placement::move_replica`] and tallies the [`RecoveryReport`]. Every
//! algorithm recovers through the driver, passing its derived index as
//! the context both hooks receive: one hook scans it for a target, the
//! other re-keys exactly the bins each move touched.
//!
//! [`move_feasible`] is conservative in one deliberate way: it ignores the
//! shared load the source (failed) bin still carries in the matrix at check
//! time. Real post-recovery reserves are therefore at most what was
//! checked, never more, so a sequence of accepted moves composes into a
//! robust final state — shared loads only ever change between bins of the
//! tenant being moved, and every such bin is re-checked by that move.

use crate::bin::BinId;
use crate::error::Result;
use crate::placement::Placement;
use crate::tenant::TenantId;
use crate::EPSILON;

/// Cost of re-replicating after a failure event (or, when aggregated, a
/// whole run of failure events).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RecoveryReport {
    /// Distinct tenants that had at least one replica re-homed.
    pub tenants_affected: usize,
    /// Replicas migrated off failed servers.
    pub replicas_migrated: usize,
    /// Total replica load moved (sum of migrated replica sizes).
    pub moved_load: f64,
    /// Fresh bins opened because no surviving bin passed the predicate.
    pub bins_opened: usize,
}

impl RecoveryReport {
    /// Folds another report into this one (for run-level aggregation).
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.tenants_affected += other.tenants_affected;
        self.replicas_migrated += other.replicas_migrated;
        self.moved_load += other.moved_load;
        self.bins_opened += other.bins_opened;
    }
}

/// The `(tenant, failed bin)` replicas orphaned by failing `failed`, in
/// tenant arrival order (a deterministic recovery schedule).
#[must_use]
pub fn orphans(placement: &Placement, failed: &[BinId]) -> Vec<(TenantId, BinId)> {
    let mut out = Vec::new();
    for (id, _, bins) in placement.tenants() {
        for &bin in bins {
            if failed.contains(&bin) {
                out.push((id, bin));
            }
        }
    }
    out
}

/// Whether moving `tenant`'s replica from `from` to `to` keeps every
/// involved bin within the γ−1-failure reserve.
///
/// Checks the target (current level plus the incoming replica plus its
/// reserve with the tenant's surviving siblings counted at their new
/// shares) and every surviving sibling (whose share with `to` grows by the
/// replica). The share still recorded with `from` is *not* subtracted — an
/// upper bound, see the module docs.
#[must_use]
pub fn move_feasible(placement: &Placement, tenant: TenantId, from: BinId, to: BinId) -> bool {
    let Some(bins) = placement.tenant_bins(tenant) else {
        return false;
    };
    if !bins.contains(&from) || bins.contains(&to) {
        return false;
    }
    let load = placement.tenant_load(tenant).expect("tenant has bins, so it has a load");
    let replica = load / placement.gamma() as f64;
    let adjustments: Vec<(BinId, f64)> =
        bins.iter().copied().filter(|&b| b != from).map(|b| (b, replica)).collect();
    let level = placement.level(to);
    if level + replica + placement.worst_failover_with(to, &adjustments) > 1.0 + EPSILON {
        return false;
    }
    bins.iter().filter(|&&b| b != from).all(|&b| {
        placement.level(b) + placement.worst_failover_with(b, &[(to, replica)]) <= 1.0 + EPSILON
    })
}

/// The first candidate that is alive, distinct from the tenant's other
/// bins, and passes [`move_feasible`]; `None` if no candidate qualifies
/// (the caller then opens a fresh bin, which always qualifies).
pub fn pick_target<I>(
    placement: &Placement,
    tenant: TenantId,
    from: BinId,
    failed: &[BinId],
    candidates: I,
) -> Option<BinId>
where
    I: IntoIterator<Item = BinId>,
{
    candidates
        .into_iter()
        .find(|&to| !failed.contains(&to) && move_feasible(placement, tenant, from, to))
}

/// Sequentially re-homes every orphaned replica.
///
/// `pick` chooses a surviving target for `(tenant, from, replica_size)` —
/// typically via [`pick_target`] over an algorithm-specific candidate
/// order — or returns `None` to open a fresh bin. `after_move` runs after
/// each applied move with `(tenant, from, to, replica_size)` so callers
/// can re-key derived indexes for exactly the affected bins and emit
/// per-move telemetry. Both hooks receive `context` (the algorithm's
/// derived state, such as its bin index) mutably, one call at a time,
/// along with the current placement.
///
/// # Errors
///
/// Propagates [`Placement::move_replica`] invariant violations.
pub fn recover_replicas<C>(
    placement: &mut Placement,
    failed: &[BinId],
    mut context: C,
    mut pick: impl FnMut(&mut C, &Placement, TenantId, BinId, f64) -> Option<BinId>,
    mut after_move: impl FnMut(&mut C, &Placement, TenantId, BinId, BinId, f64),
) -> Result<RecoveryReport> {
    let orphan_list = orphans(placement, failed);
    let mut report = RecoveryReport::default();
    let mut affected: Vec<TenantId> = Vec::new();
    for (tenant, from) in orphan_list {
        if !affected.contains(&tenant) {
            affected.push(tenant);
        }
        let load = placement.tenant_load(tenant).expect("orphaned tenants are placed");
        let replica = load / placement.gamma() as f64;
        let to = match pick(&mut context, placement, tenant, from, replica) {
            Some(bin) => bin,
            None => {
                report.bins_opened += 1;
                placement.open_bin(None)
            }
        };
        placement.move_replica(tenant, from, to)?;
        report.replicas_migrated += 1;
        report.moved_load += replica;
        after_move(&mut context, placement, tenant, from, to, replica);
    }
    report.tenants_affected = affected.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;
    use crate::tenant::Tenant;

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    fn scan_all(p: &Placement, t: TenantId, from: BinId, failed: &[BinId]) -> Option<BinId> {
        pick_target(p, t, from, failed, (0..p.created_bins()).map(BinId::new))
    }

    #[test]
    fn orphans_enumerate_in_arrival_order() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(3, 0.4), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.4), &[b[0], b[2]]).unwrap();
        p.place_tenant(&tenant(2, 0.4), &[b[2], b[3]]).unwrap();
        let got = orphans(&p, &[b[0]]);
        assert_eq!(got, vec![(TenantId::new(3), b[0]), (TenantId::new(1), b[0])]);
        assert!(orphans(&p, &[]).is_empty());
    }

    #[test]
    fn move_feasible_guards_target_and_siblings() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.8), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.9), &[b[2], b[3]]).unwrap();
        // Moving tenant 0's replica from b0 onto b2 would give b2 a level
        // of 0.45 + 0.4 and a reserve of max(0.45, 0.4) → over capacity.
        assert!(!move_feasible(&p, TenantId::new(0), b[0], b[2]));
        // A fresh bin always works: level 0.4 + reserve 0.4 ≤ 1.
        let fresh = p.open_bin(None);
        assert!(move_feasible(&p, TenantId::new(0), b[0], fresh));
        // Endpoint misuse is rejected rather than miscounted.
        assert!(!move_feasible(&p, TenantId::new(0), b[2], fresh));
        assert!(!move_feasible(&p, TenantId::new(0), b[0], b[1]));
        assert!(!move_feasible(&p, TenantId::new(7), b[0], fresh));
    }

    #[test]
    fn recovery_restores_robustness_after_worst_case_failures() {
        // γ = 3: fail two of the servers of a loaded placement, recover,
        // and demand Theorem 1 holds again with the failed bins empty.
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..6).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.9), &[b[0], b[1], b[2]]).unwrap();
        p.place_tenant(&tenant(1, 0.6), &[b[3], b[4], b[5]]).unwrap();
        p.place_tenant(&tenant(2, 0.3), &[b[0], b[3], b[5]]).unwrap();
        let failed = [b[0], b[3]];
        let report = recover_replicas(
            &mut p,
            &failed,
            (),
            |_, p, t, from, _| scan_all(p, t, from, &failed),
            |_, _, _, _, _, _| {},
        )
        .unwrap();
        assert_eq!(report.replicas_migrated, 4);
        assert_eq!(report.tenants_affected, 3);
        assert!((report.moved_load - (0.3 + 0.2 + 0.1 + 0.1)).abs() < 1e-12);
        assert_eq!(p.level(b[0]), 0.0);
        assert_eq!(p.level(b[3]), 0.0);
        assert!(p.is_robust(), "recovery must re-establish the γ−1 guarantee");
        // Every tenant still has γ distinct live replicas.
        for (_, _, bins) in p.tenants() {
            assert_eq!(bins.len(), 3);
            assert!(!bins.contains(&b[0]) && !bins.contains(&b[3]));
        }
    }

    #[test]
    fn recovery_opens_fresh_bins_when_no_survivor_fits() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 1.0), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 1.0), &[b[2], b[3]]).unwrap();
        // Failing b0 leaves no surviving bin that can absorb a 0.5 replica
        // (every survivor is at level 0.5 with reserve 0.5).
        let failed = [b[0]];
        let before = p.created_bins();
        let report = recover_replicas(
            &mut p,
            &failed,
            (),
            |_, p, t, from, _| scan_all(p, t, from, &failed),
            |_, _, _, _, _, _| {},
        )
        .unwrap();
        assert_eq!(report.bins_opened, 1);
        assert_eq!(p.created_bins(), before + 1);
        assert!(p.is_robust());
    }

    #[test]
    fn report_aggregation() {
        let mut total = RecoveryReport::default();
        total.absorb(&RecoveryReport {
            tenants_affected: 2,
            replicas_migrated: 3,
            moved_load: 0.5,
            bins_opened: 1,
        });
        total.absorb(&RecoveryReport {
            tenants_affected: 1,
            replicas_migrated: 1,
            moved_load: 0.25,
            bins_opened: 0,
        });
        assert_eq!(total.tenants_affected, 3);
        assert_eq!(total.replicas_migrated, 4);
        assert!((total.moved_load - 0.75).abs() < 1e-12);
        assert_eq!(total.bins_opened, 1);
    }
}
