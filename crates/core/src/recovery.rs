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
use crate::validity;

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
/// tenant arrival order (a deterministic recovery schedule), each tenant's
/// failed bins in the order its record lists them.
///
/// The residents come from the failed bins' content lists, so the cost
/// grows with the orphans, not the fleet. A content list is not in
/// arrival order (a replica moved in is appended), so the residents are
/// sorted by arrival. Ids at or past [`Placement::created_bins`] host
/// nothing, and a bin listed twice orphans each replica once.
#[must_use]
pub fn orphans(placement: &Placement, failed: &[BinId]) -> Vec<(TenantId, BinId)> {
    let mut residents: Vec<(usize, TenantId)> = failed
        .iter()
        .filter(|bin| bin.index() < placement.created_bins())
        .flat_map(|&bin| placement.bin(bin).contents())
        .map(|&(tenant, _)| (placement.arrival_slot(tenant).expect("residents are placed"), tenant))
        .collect();
    residents.sort_unstable();
    residents.dedup();
    let mut out = Vec::new();
    for (_, tenant) in residents {
        let bins = placement.tenant_bins(tenant).expect("residents are placed");
        out.extend(bins.iter().filter(|bin| failed.contains(bin)).map(|&bin| (tenant, bin)));
    }
    out
}

/// Whether moving `tenant`'s replica from `from` to `to` keeps every
/// involved bin within the γ−1-failure reserve.
///
/// Runs Theorem 1's fit test ([`validity::fits`]) on the target, at its
/// level plus the incoming replica with its shares to the tenant's
/// surviving siblings raised by the replica, and on every surviving
/// sibling, at its level with its share to `to` raised by the replica. The
/// share still recorded with `from` is *not* subtracted — an upper bound,
/// see the module docs.
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
    let k = placement.gamma() - 1;
    let mut siblings = bins.iter().filter(|&&b| b != from);
    let adjustments = siblings.clone().map(|&b| (b, replica));
    validity::fits(placement, to, placement.level(to) + replica, adjustments, k)
        && siblings.all(|&b| validity::fits(placement, b, placement.level(b), [(to, replica)], k))
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
    let mut report = RecoveryReport {
        // The list holds each tenant's orphans together.
        tenants_affected: orphan_list.chunk_by(|a, b| a.0 == b.0).count(),
        ..RecoveryReport::default()
    };
    for (tenant, from) in orphan_list {
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

        // Inputs a read in content order gets wrong, each also checked
        // against the definition: a walk over every tenant in arrival order.
        let walk = |p: &Placement, failed: &[BinId]| -> Vec<(TenantId, BinId)> {
            let mut out = Vec::new();
            for (id, _, bins) in p.tenants() {
                out.extend(bins.iter().filter(|b| failed.contains(b)).map(|&b| (id, b)));
            }
            out
        };
        let t = TenantId::new;
        // Tenant 3 arrived first but its replica moves into b3 after
        // tenant 2's: b3 lists 2 before 3.
        p.move_replica(t(3), b[1], b[3]).unwrap();
        assert_eq!(p.bin(b[3]).contents()[0].0, t(2));
        assert_eq!(orphans(&p, &[b[3]]), vec![(t(3), b[3]), (t(2), b[3])]);
        // Two failed bins share tenant 2; they are listed out of order,
        // one of them twice, beside an id no bin has.
        let failed = [b[3], b[2], b[3], BinId::new(99)];
        let want = vec![(t(3), b[3]), (t(1), b[2]), (t(2), b[2]), (t(2), b[3])];
        assert_eq!(orphans(&p, &failed), want);
        assert_eq!(walk(&p, &failed), want);
        // A removed and re-placed id arrives last, and its bins come in
        // its record's order (b3 before b0).
        p.remove_tenant(t(3)).unwrap();
        p.place_tenant(&tenant(3, 0.2), &[b[3], b[0]]).unwrap();
        let failed = [b[0], b[3]];
        let want = vec![(t(1), b[0]), (t(2), b[3]), (t(3), b[3]), (t(3), b[0])];
        assert_eq!(orphans(&p, &failed), want);
        assert_eq!(walk(&p, &failed), want);
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
