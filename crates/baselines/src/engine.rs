//! The one engine behind every baseline packer.
//!
//! [`Baseline`] owns the placement, a keyed [`BinIndex`], the reserve it
//! places with, the telemetry handles and the fallback count, and
//! implements [`Consolidator`] once. What tells Best Fit from RFI or
//! Random Fit apart is a small [`Rule`]: the order it offers candidate
//! servers in and the index key that order reads, RFI's interleaving cap,
//! Next Fit's window. Placement and recovery scan the same candidates, so
//! every packer re-homes orphaned replicas in its own preference order.

use crate::common::{BaselineTelemetry, ReserveMode};
use cubefit_core::algorithm::{LoadUpdateOutcome, RemovalOutcome};
use cubefit_core::bin_index::BinIndex;
use cubefit_core::recovery::{self, RecoveryReport};
use cubefit_core::smallbuf::SmallBuf;
use cubefit_core::{
    validity, BinId, Consolidator, Error, Placement, PlacementOutcome, PlacementStage, Result,
    Tenant, TenantId, EPSILON,
};
use cubefit_telemetry::{Recorder, TraceEvent};
use std::fmt;

/// What distinguishes one baseline packer from another.
pub trait Rule: Clone + fmt::Debug + 'static {
    /// The packer's [`Consolidator::name`] label.
    const NAME: &'static str;

    /// Whether a candidate must also keep the servers already chosen for
    /// the tenant within their reserve (Theorem 1's tuple test over the
    /// candidate and the chosen servers) rather than only fit beside them
    /// itself.
    const CHECKS_CHOSEN: bool = true;

    /// The key `bin` is indexed by; `None` (the default) for rules whose
    /// candidate order reads no index.
    fn key(&self, placement: &Placement, bin: BinId) -> Option<f64> {
        let _ = (placement, bin);
        None
    }

    /// Candidate servers for a replica of `size`, in preference order; by
    /// default every server in opening order.
    fn candidates<'a>(
        &'a mut self,
        index: &'a BinIndex,
        placement: &'a Placement,
        size: f64,
    ) -> impl Iterator<Item = BinId> + 'a {
        let _ = (index, size);
        (0..placement.created_bins()).map(BinId::new)
    }

    /// A cap on a candidate's plain level (RFI's `μ`). Fresh servers are
    /// exempt: a replica must land somewhere.
    fn fill_cap(&self) -> Option<f64> {
        None
    }

    /// Chooses the tenant's `γ` servers, returning them with how many were
    /// opened for it. By default each replica takes the first candidate
    /// that admits it, or a fresh server when none does; a set that then
    /// fails as a whole falls back to `γ` fresh servers.
    fn choose(packer: &mut Baseline<Self>, tenant: &Tenant, size: f64) -> (Vec<BinId>, usize) {
        packer.fit_each_replica(tenant, size)
    }

    /// Runs before `bins` lose replicas to a failure or a migration.
    fn drain(&mut self, bins: &[BinId]) {
        let _ = bins;
    }
}

/// A baseline packer: the placement plus what its [`Rule`] needs to
/// choose servers. The public packers are aliases of this type, such as
/// [`crate::BestFit`] and [`crate::Rfi`].
#[derive(Debug, Clone)]
pub struct Baseline<R> {
    pub(crate) placement: Placement,
    /// Every server the placement created, at its [`Rule::key`] (empty
    /// for rules that key nothing).
    pub(crate) index: BinIndex,
    pub(crate) reserve: ReserveMode,
    pub(crate) rule: R,
    fallbacks: usize,
    pub(crate) telemetry: BaselineTelemetry,
}

impl<R: Rule> Baseline<R> {
    /// A packer placing with `reserve` under `rule`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidReplication`] if `gamma < 2`.
    pub(crate) fn with_rule(gamma: usize, reserve: ReserveMode, rule: R) -> Result<Self> {
        if gamma < 2 {
            return Err(Error::InvalidReplication { gamma });
        }
        Ok(Baseline {
            placement: Placement::new(gamma),
            index: BinIndex::default(),
            reserve,
            rule,
            fallbacks: 0,
            telemetry: BaselineTelemetry::default(),
        })
    }

    /// How many tenants required the all-fresh-servers fallback (whole
    /// assignments that turned infeasible after sibling placement).
    #[must_use]
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }

    fn open(&mut self) -> BinId {
        let bin = self.placement.open_bin(None);
        rekey(&mut self.index, &self.rule, &self.placement, &[bin]);
        bin
    }

    /// Places each replica on the first candidate that admits it, opening
    /// a fresh server when none does. Later replicas raise earlier
    /// servers' shared loads, so the set is then re-validated as a whole
    /// (capacity and reserve only); if it fails, the tenant falls back to
    /// `γ` fresh servers, which is always feasible.
    pub(crate) fn fit_each_replica(&mut self, tenant: &Tenant, size: f64) -> (Vec<BinId>, usize) {
        let gamma = self.placement.gamma();
        let mut chosen: Vec<BinId> = Vec::with_capacity(gamma);
        let mut opened = 0;
        for replica in 0..gamma {
            let (pick, scanned) = self.pick(size, &chosen);
            self.telemetry.recorder.emit(|| TraceEvent::FitAttempt {
                tenant: tenant.id().get(),
                replica,
                scanned,
                opened_new: pick.is_none(),
            });
            match pick {
                Some(bin) => chosen.push(bin),
                None => {
                    chosen.push(self.open());
                    opened += 1;
                }
            }
        }
        if !validity::tuple_fits(&chosen, replica_fit(&self.placement, self.reserve, size, None)) {
            self.fallbacks += 1;
            self.telemetry.fallbacks.inc();
            chosen = (0..gamma).map(|_| self.open()).collect();
            opened = gamma;
        }
        (chosen, opened)
    }

    /// The first candidate that admits a replica of `size` next to
    /// `chosen`, plus how many candidates the scan inspected (for
    /// `FitAttempt` trace events).
    fn pick(&mut self, size: f64, chosen: &[BinId]) -> (Option<BinId>, usize) {
        let Baseline { placement, index, reserve, rule, .. } = self;
        let placement = &*placement;
        let fits = replica_fit(placement, *reserve, size, rule.fill_cap());
        // The candidate leads the tentative tuple, so the tuple test checks
        // it before the chosen servers whose shared loads it raises.
        let mut tuple: SmallBuf<BinId, 8> = SmallBuf::new(BinId::new(0));
        for &bin in [BinId::new(0)].iter().chain(chosen) {
            tuple.push(bin);
        }
        let mut scanned = 0;
        let hit = rule.candidates(index, placement, size).find(|&bin| {
            scanned += 1;
            if chosen.contains(&bin) {
                return false;
            }
            if R::CHECKS_CHOSEN {
                tuple.as_mut_slice()[0] = bin;
                validity::tuple_fits(tuple.as_slice(), &fits)
            } else {
                fits(bin, chosen)
            }
        });
        (hit, scanned)
    }
}

/// The baselines' per-server test for a replica of `size` joining a
/// server beside the tenant's tentative siblings: the rule's fill `cap`
/// (RFI's `μ`) on the server's level, then Theorem 1's fit test with the
/// reserve `reserve` covers.
pub(crate) fn replica_fit(
    placement: &Placement,
    reserve: ReserveMode,
    size: f64,
    cap: Option<f64>,
) -> impl Fn(BinId, &[BinId]) -> bool + '_ {
    let k = reserve.failures_covered(placement.gamma());
    move |bin, siblings| {
        let level = placement.level(bin) + size;
        let adjustments = siblings.iter().map(|&sibling| (sibling, size));
        cap.is_none_or(|cap| level <= cap + EPSILON)
            && validity::fits(placement, bin, level, adjustments, k)
    }
}

/// Moves each of `bins` to its current key.
fn rekey<R: Rule>(index: &mut BinIndex, rule: &R, placement: &Placement, bins: &[BinId]) {
    for &bin in bins {
        if let Some(key) = rule.key(placement, bin) {
            index.insert(bin, key);
        }
    }
}

/// Re-keys the bins a move of `tenant`'s replica off `from` touched: the
/// source's and target's levels change, plus the shared loads between the
/// target and every sibling.
fn rekey_move<R: Rule>(
    index: &mut BinIndex,
    rule: &R,
    placement: &Placement,
    tenant: TenantId,
    from: BinId,
) {
    rekey(index, rule, placement, &[from]);
    rekey(index, rule, placement, placement.tenant_bins(tenant).expect("still placed"));
}

impl<R: Rule> Consolidator for Baseline<R> {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        if self.placement.tenant_bins(tenant.id()).is_some() {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        let size = tenant.replica_size(self.placement.gamma());
        self.telemetry.arrival(&tenant, self.placement.tenant_count());
        let (bins, opened) = R::choose(self, &tenant, size);
        let pending = self.telemetry.pending_opens(&self.placement, &bins);
        self.placement.place_tenant(&tenant, &bins)?;
        rekey(&mut self.index, &self.rule, &self.placement, &bins);
        self.telemetry.opened(&self.placement, &pending);
        self.telemetry.placed(&tenant, &bins, opened);
        Ok(PlacementOutcome { tenant: tenant.id(), bins, opened, stage: PlacementStage::Direct })
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let (load, bins) = self.placement.remove_tenant(tenant)?;
        // Emptied bins stay indexed, so later arrivals reuse them before
        // opening new servers.
        rekey(&mut self.index, &self.rule, &self.placement, &bins);
        self.telemetry.recorder.emit(|| TraceEvent::TenantDeparted { tenant: tenant.get(), load });
        Ok(RemovalOutcome { tenant, load, bins })
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        // Only the tenant's bins change level, and only pairs among them
        // change shared load: the same re-key footprint as a removal.
        let (old_load, bins) = self.placement.update_load(tenant, new_load)?;
        rekey(&mut self.index, &self.rule, &self.placement, &bins);
        Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
    }

    /// Placement decisions query the reserve per replica, so the loop
    /// stays sequential; the batch only amortizes the tenant-table growth.
    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        self.placement.reserve_tenants(tenants.len());
        tenants.into_iter().map(|tenant| self.place(tenant)).collect()
    }

    /// Re-homes orphaned replicas in the rule's candidate order through
    /// the full `γ − 1` move predicate, whatever reserve the rule places
    /// with, so recovery never weakens robustness (for RFI at `γ = 2` the
    /// two coincide).
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        self.rule.drain(failed);
        let Baseline { placement, index, rule, telemetry, .. } = self;
        recovery::recover_replicas(
            placement,
            failed,
            (index, rule),
            |(index, rule), p, tenant, from, replica| {
                recovery::pick_target(p, tenant, from, failed, rule.candidates(index, p, replica))
            },
            |(index, rule), p, tenant, from, to, replica| {
                rekey_move(index, &**rule, p, tenant, from);
                telemetry.migrated(tenant, from, to, replica);
            },
        )
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let load = self.placement.tenant_load(tenant).ok_or(Error::UnknownTenant { tenant })?;
        self.rule.drain(&[from]);
        self.placement.move_replica(tenant, from, to)?;
        rekey_move(&mut self.index, &self.rule, &self.placement, tenant, from);
        self.telemetry.migrated(tenant, from, to, load / self.placement.gamma() as f64);
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(self.clone())
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn name(&self) -> &'static str {
        R::NAME
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.telemetry = BaselineTelemetry::resolve(recorder, R::NAME, self.placement.gamma());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubefit_core::{Load, Tenant, TenantId};

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    /// Theorem 1's fit test for a replica of `size` joining `bin` beside
    /// `siblings`, at the depth `reserve` covers.
    fn fits(
        p: &Placement,
        bin: BinId,
        size: f64,
        siblings: &[BinId],
        reserve: ReserveMode,
    ) -> bool {
        let adjustments = siblings.iter().map(|&sibling| (sibling, size));
        validity::fits(
            p,
            bin,
            p.level(bin) + size,
            adjustments,
            reserve.failures_covered(p.gamma()),
        )
    }

    /// Theorem 1's tuple test over `bins` for replicas of `size`.
    fn tuple_fits(p: &Placement, bins: &[BinId], size: f64, reserve: ReserveMode) -> bool {
        validity::tuple_fits(bins, |bin, siblings| fits(p, bin, size, siblings, reserve))
    }

    fn placement_with_pair() -> (Placement, Vec<BinId>) {
        let mut p = Placement::new(3);
        let bins: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[bins[0], bins[1], bins[2]]).unwrap();
        (p, bins)
    }

    #[test]
    fn gamma_reserve_is_stricter_than_single() {
        let (p, bins) = placement_with_pair();
        // bin0: level 0.2, shares 0.2 with bins 1 and 2.
        // Single-failure reserve: 0.2 + s + 0.2 ≤ 1 → s ≤ 0.6.
        // γ−1 reserve: 0.2 + s + 0.4 ≤ 1 → s ≤ 0.4.
        assert!(fits(&p, bins[0], 0.5, &[], ReserveMode::SingleFailure));
        assert!(!fits(&p, bins[0], 0.5, &[], ReserveMode::GammaMinusOne));
        assert!(fits(&p, bins[0], 0.4, &[], ReserveMode::GammaMinusOne));
    }

    #[test]
    fn fill_cap_limits_level() {
        let (p, bins) = placement_with_pair();
        let capped = |size| replica_fit(&p, ReserveMode::SingleFailure, size, Some(0.85));
        assert!(capped(0.3)(bins[0], &[]));
        assert!(!capped(0.7)(bins[0], &[]));
    }

    #[test]
    fn siblings_raise_future_shared_load() {
        let (p, bins) = placement_with_pair();
        // Placing 0.25 on bin0 with a sibling on bin1 raises their mutual
        // share to 0.45: single-failure check 0.2+0.25+0.45 = 0.9 ≤ 1 ok,
        // but with another sibling on bin2 the γ−1 reserve is 0.9 → 1.35.
        assert!(fits(&p, bins[0], 0.25, &[bins[1]], ReserveMode::SingleFailure));
        assert!(!fits(&p, bins[0], 0.25, &[bins[1], bins[2]], ReserveMode::GammaMinusOne));
    }

    #[test]
    fn assignment_revalidation_catches_pairwise_overload() {
        let mut p = Placement::new(2);
        let a = p.open_bin(None);
        let b = p.open_bin(None);
        p.place_tenant(&tenant(0, 0.7), &[a, b]).unwrap();
        // Each bin alone admits a 0.3 replica, but the pair (with mutual
        // share 0.35+0.3) does not.
        assert!(fits(&p, a, 0.3, &[], ReserveMode::GammaMinusOne));
        assert!(!tuple_fits(&p, &[a, b], 0.3, ReserveMode::GammaMinusOne));
        assert!(tuple_fits(&p, &[a, b], 0.1, ReserveMode::GammaMinusOne));
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
        let full = ReserveMode::GammaMinusOne;
        assert!(!fits(&p, bins[0], 0.06, &bins[1..], full));
        assert!(fits(&p, bins[0], 0.05, &bins[1..], full));
        // The candidate bins[0] leading the chosen bins[1..], as a greedy
        // scan tests it, forwards the full sibling set too.
        let mut tuple = vec![bins[0]];
        tuple.extend_from_slice(&bins[1..]);
        assert!(!tuple_fits(&p, &tuple, 0.06, full));
        assert!(tuple_fits(&p, &tuple, 0.05, full));
        // The whole-assignment re-validation agrees.
        assert!(!tuple_fits(&p, &bins, 0.06, full));
        assert!(tuple_fits(&p, &bins, 0.05, full));
    }

    #[test]
    fn empty_bin_always_feasible_within_cap() {
        let (p, bins) = placement_with_pair();
        assert!(fits(&p, bins[3], 1.0 / 3.0, &[], ReserveMode::GammaMinusOne));
    }
}
