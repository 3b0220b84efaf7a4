//! Placement state shared by all consolidation algorithms.

use crate::bin::{BinClass, BinData, BinId, BinSnapshot};
use crate::error::{Error, Result};
use crate::shared::{SharedIndex, SharedUndo};
use crate::tenant::{Tenant, TenantId};
use std::collections::HashMap;

/// A tenant's record inside a placement, kept at 32 bytes (the bins are a
/// boxed slice, not a `Vec`) because a fleet holds one per tenant.
#[derive(Debug, Clone)]
pub(crate) struct TenantRecord {
    /// The tenant's full load (each replica carries `load / γ`).
    pub load: f64,
    /// The `γ` bins hosting the tenant's replicas.
    pub bins: Box<[BinId]>,
    /// The tenant's index in [`Placement`]'s arrival order.
    pub slot: usize,
}

/// What [`Placement::move_replica_undoable`] overwrote, so that
/// [`Placement::undo_move`] can put it back bit for bit.
#[derive(Debug)]
#[must_use = "a move is only undoable through its undo record"]
pub struct MoveUndo {
    tenant: TenantId,
    from: BinId,
    to: BinId,
    /// Where the replica sat in `from`'s content list, and the entry.
    source_position: usize,
    source_entry: (TenantId, f64),
    source_level: f64,
    target_level: f64,
    nonempty_bins: usize,
    shared: SharedUndo,
}

/// The assignment of tenant replicas to bins, with incremental bookkeeping
/// of levels and pairwise shared loads.
///
/// A `Placement` is owned and mutated by a [`crate::Consolidator`]; it can
/// also be driven directly for hand-built scenarios:
///
/// ```
/// use cubefit_core::{Load, Placement, Tenant, TenantId};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let mut placement = Placement::new(2);
/// let (s1, s2) = (placement.open_bin(None), placement.open_bin(None));
/// let tenant = Tenant::new(TenantId::new(0), Load::new(0.6)?);
/// placement.place_tenant(&tenant, &[s1, s2])?;
/// assert_eq!(placement.open_bins(), 2);
/// assert!((placement.level(s1) - 0.3).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Placement {
    gamma: usize,
    bins: Vec<BinData>,
    tenants: HashMap<TenantId, TenantRecord>,
    /// Tenants in arrival order. A slot is live only while its id's
    /// record points back at it: a removed tenant's id stays in its slot,
    /// dead, until the next compaction.
    arrival_order: Vec<TenantId>,
    shared: SharedIndex,
    total_load: f64,
    nonempty_bins: usize,
}

impl Placement {
    /// Creates an empty placement with replication factor `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma < 2`; algorithms validate their configuration before
    /// constructing placements.
    #[must_use]
    pub fn new(gamma: usize) -> Self {
        assert!(gamma >= 2, "replication factor must be at least 2");
        Placement {
            gamma,
            bins: Vec::new(),
            tenants: HashMap::new(),
            arrival_order: Vec::new(),
            shared: SharedIndex::new(gamma),
            total_load: 0.0,
            nonempty_bins: 0,
        }
    }

    /// Reserves capacity for `additional` more tenants (batch-placement
    /// fast path: one table growth instead of many).
    pub fn reserve_tenants(&mut self, additional: usize) {
        self.tenants.reserve(additional);
        self.arrival_order.reserve(additional);
    }

    /// Replication factor `γ`.
    #[must_use]
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Opens a new bin, optionally tagging it with a CubeFit class.
    pub fn open_bin(&mut self, class: Option<BinClass>) -> BinId {
        let id = BinId(self.bins.len());
        self.bins.push(BinData::new(class));
        self.shared.push_bin();
        debug_assert_eq!(self.shared.len(), self.bins.len());
        id
    }

    /// Places all `γ` replicas of `tenant` on the given bins, updating
    /// levels and shared loads.
    ///
    /// # Errors
    ///
    /// * [`Error::DuplicateTenant`] if the tenant was already placed;
    /// * [`Error::InternalInvariant`] if the bin list does not contain
    ///   exactly `γ` distinct, existing bins.
    pub fn place_tenant(&mut self, tenant: &Tenant, bins: &[BinId]) -> Result<()> {
        if self.tenants.contains_key(&tenant.id()) {
            return Err(Error::DuplicateTenant { tenant: tenant.id() });
        }
        if bins.len() != self.gamma {
            return Err(Error::InternalInvariant {
                detail: format!("expected {} bins, got {}", self.gamma, bins.len()),
            });
        }
        for (i, bin) in bins.iter().enumerate() {
            if bin.0 >= self.bins.len() {
                return Err(Error::InternalInvariant { detail: format!("{bin} does not exist") });
            }
            if bins[..i].contains(bin) {
                return Err(Error::InternalInvariant {
                    detail: format!("{bin} listed twice; replicas need distinct servers"),
                });
            }
        }
        let replica = tenant.replica_size(self.gamma);
        for (i, &bin) in bins.iter().enumerate() {
            let data = &mut self.bins[bin.0];
            if data.contents.is_empty() {
                self.nonempty_bins += 1;
            }
            data.level += replica;
            data.contents.push((tenant.id(), replica));
            for &other in &bins[i + 1..] {
                self.shared.add(bin, other, replica);
            }
        }
        self.total_load += tenant.load().get();
        let record = TenantRecord {
            load: tenant.load().get(),
            bins: bins.into(),
            slot: self.arrival_order.len(),
        };
        self.tenants.insert(tenant.id(), record);
        self.arrival_order.push(tenant.id());
        Ok(())
    }

    /// Removes all `γ` replicas of `tenant`, decrementing levels, shared
    /// loads and the total load. Bins the tenant occupied stay open (they
    /// may still host other replicas, and bin ids are stable), but a bin
    /// emptied by the removal stops counting toward [`Self::open_bins`].
    ///
    /// Returns the removed tenant's load and hosting bins so callers
    /// (algorithms with derived indexes) can re-key exactly the affected
    /// bins.
    ///
    /// The tenant's arrival-order slot is left dead, so removal costs
    /// `O(γ)` plus the shared-load rows, not a scan of every tenant; once
    /// dead slots exceed a quarter of the live tenants, one in-order pass
    /// drops them (`O(1)` amortized).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownTenant`] if `tenant` is not in the placement.
    pub fn remove_tenant(&mut self, tenant: TenantId) -> Result<(f64, Vec<BinId>)> {
        let record = self.tenants.remove(&tenant).ok_or(Error::UnknownTenant { tenant })?;
        let replica = record.load / self.gamma as f64;
        for (i, &bin) in record.bins.iter().enumerate() {
            let data = &mut self.bins[bin.0];
            data.level = (data.level - replica).max(0.0);
            data.contents.retain(|(id, _)| *id != tenant);
            if data.contents.is_empty() {
                data.level = 0.0;
                self.nonempty_bins -= 1;
            }
            for &other in &record.bins[i + 1..] {
                self.shared.sub(bin, other, replica);
            }
        }
        self.total_load = (self.total_load - record.load).max(0.0);
        if self.arrival_order.len() - self.tenants.len() > self.tenants.len() / 4 {
            self.compact_arrival_order();
        }
        Ok((record.load, record.bins.into_vec()))
    }

    /// Drops the dead slots from the arrival order, keeping the live
    /// tenants in order and re-pointing their records' slots.
    fn compact_arrival_order(&mut self) {
        let mut kept = 0;
        for slot in 0..self.arrival_order.len() {
            let id = self.arrival_order[slot];
            if let Some(record) = self.tenants.get_mut(&id).filter(|r| r.slot == slot) {
                record.slot = kept;
                self.arrival_order[kept] = id;
                kept += 1;
            }
        }
        self.arrival_order.truncate(kept);
    }

    /// Re-estimates `tenant`'s load in place: every one of its `γ` replicas
    /// changes from `old/γ` to `new_load/γ`, shifting bin levels, pairwise
    /// shared loads and the total load incrementally. The hosting bins do
    /// not change — this is the load-drift primitive, not a migration.
    ///
    /// The new load passes the same typed admission validation as
    /// [`crate::Load::new`], so NaN, non-positive and above-capacity values
    /// are rejected with an error in release builds too. Note that a drift
    /// *upward* can push bins past the Theorem-1 reserve; callers watch for
    /// that with [`crate::monitor::classify`] and react with the mitigation
    /// planner rather than this method refusing the update (the load is a
    /// measurement, not a request).
    ///
    /// Returns the previous load and the hosting bins so algorithms with
    /// derived indexes can re-key exactly the affected bins.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidLoad`] if `new_load` is not a finite number in
    ///   `(0, 1]`;
    /// * [`Error::UnknownTenant`] if `tenant` is not in the placement.
    pub fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<(f64, Vec<BinId>)> {
        let new_load = crate::load::Load::new(new_load)?.get();
        let record = self.tenants.get(&tenant).ok_or(Error::UnknownTenant { tenant })?;
        let old_load = record.load;
        let bins = record.bins.to_vec();
        let delta = (new_load - old_load) / self.gamma as f64;
        for (i, &bin) in bins.iter().enumerate() {
            let data = &mut self.bins[bin.0];
            data.level = (data.level + delta).max(0.0);
            for entry in &mut data.contents {
                if entry.0 == tenant {
                    entry.1 += delta;
                }
            }
            if delta != 0.0 {
                for &other in &bins[i + 1..] {
                    if delta > 0.0 {
                        self.shared.add(bin, other, delta);
                    } else {
                        self.shared.sub(bin, other, -delta);
                    }
                }
            }
        }
        self.total_load = (self.total_load - old_load + new_load).max(0.0);
        self.tenants.get_mut(&tenant).expect("checked above").load = new_load;
        Ok((old_load, bins))
    }

    /// Moves one replica of `tenant` from bin `from` to bin `to`, shifting
    /// its level and pairwise shared loads with the tenant's other bins.
    /// This is the recovery primitive: re-homing a replica orphaned by a
    /// server failure without disturbing the tenant's surviving replicas.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownTenant`] if `tenant` is not in the placement;
    /// * [`Error::InternalInvariant`] if `from` does not host the tenant,
    ///   `to` already does (replicas need distinct servers), or `to` does
    ///   not exist.
    pub fn move_replica(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let record = self.check_move(tenant, from, to)?;
        let replica = record.load / self.gamma as f64;
        let siblings: Vec<BinId> = record.bins.iter().copied().filter(|&b| b != from).collect();
        let source = &mut self.bins[from.0];
        source.level = (source.level - replica).max(0.0);
        source.contents.retain(|(id, _)| *id != tenant);
        if source.contents.is_empty() {
            source.level = 0.0;
            self.nonempty_bins -= 1;
        }
        let target = &mut self.bins[to.0];
        if target.contents.is_empty() {
            self.nonempty_bins += 1;
        }
        target.level += replica;
        target.contents.push((tenant, replica));
        for &sibling in &siblings {
            self.shared.sub(from, sibling, replica);
            self.shared.add(to, sibling, replica);
        }
        let record = self.tenants.get_mut(&tenant).expect("checked above");
        for bin in record.bins.iter_mut() {
            if *bin == from {
                *bin = to;
            }
        }
        Ok(())
    }

    /// [`Self::move_replica`], returning what the move overwrote so that
    /// [`Self::undo_move`] can restore it exactly. A planner can then try
    /// moves on one working copy instead of cloning the placement.
    ///
    /// # Errors
    ///
    /// As [`Self::move_replica`]; a failed move changes nothing.
    pub fn move_replica_undoable(
        &mut self,
        tenant: TenantId,
        from: BinId,
        to: BinId,
    ) -> Result<MoveUndo> {
        let record = self.check_move(tenant, from, to)?;
        let siblings: Vec<BinId> = record.bins.iter().copied().filter(|&b| b != from).collect();
        let source = &self.bins[from.0];
        let source_position = source
            .contents
            .iter()
            .position(|(id, _)| *id == tenant)
            .expect("a tenant's bins host its replicas");
        let undo = MoveUndo {
            tenant,
            from,
            to,
            source_position,
            source_entry: source.contents[source_position],
            source_level: source.level,
            target_level: self.bins[to.0].level,
            nonempty_bins: self.nonempty_bins,
            shared: self.shared.save_move(from, to, &siblings),
        };
        self.move_replica(tenant, from, to)?;
        Ok(undo)
    }

    /// Reverts the move `undo` was returned for, bit for bit: both bins'
    /// levels and content lists (order included), the shared loads
    /// between either endpoint and each sibling in both rows (including
    /// entries the move deleted), those rows' top caches, the tenant's bin
    /// order and the open-bin count.
    ///
    /// Undo moves in the reverse order they were made, with no other
    /// mutation in between; anything else restores a state that never
    /// existed.
    pub fn undo_move(&mut self, undo: MoveUndo) {
        let target = &mut self.bins[undo.to.0];
        let moved = target.contents.pop();
        debug_assert_eq!(moved.map(|(id, _)| id), Some(undo.tenant), "undo out of order");
        target.level = undo.target_level;
        let source = &mut self.bins[undo.from.0];
        source.contents.insert(undo.source_position, undo.source_entry);
        source.level = undo.source_level;
        self.nonempty_bins = undo.nonempty_bins;
        self.shared.restore(undo.shared);
        let record = self.tenants.get_mut(&undo.tenant).expect("undo follows its move");
        for bin in record.bins.iter_mut() {
            if *bin == undo.to {
                *bin = undo.from;
            }
        }
    }

    /// The tenant's record, if moving its replica from `from` to `to` is
    /// a valid move.
    fn check_move(&self, tenant: TenantId, from: BinId, to: BinId) -> Result<&TenantRecord> {
        let record = self.tenants.get(&tenant).ok_or(Error::UnknownTenant { tenant })?;
        if to.0 >= self.bins.len() {
            return Err(Error::InternalInvariant { detail: format!("{to} does not exist") });
        }
        if !record.bins.contains(&from) {
            return Err(Error::InternalInvariant {
                detail: format!("tenant {tenant} has no replica on {from}"),
            });
        }
        if record.bins.contains(&to) {
            return Err(Error::InternalInvariant {
                detail: format!("tenant {tenant} already has a replica on {to}"),
            });
        }
        Ok(record)
    }

    /// Read-only view of one bin.
    ///
    /// # Panics
    ///
    /// Panics if `bin` does not belong to this placement.
    #[must_use]
    pub fn bin(&self, bin: BinId) -> BinSnapshot<'_> {
        BinSnapshot { id: bin, data: &self.bins[bin.0] }
    }

    /// Iterates over all bins ever opened (including empty ones).
    pub fn bins(&self) -> impl Iterator<Item = BinSnapshot<'_>> {
        self.bins.iter().enumerate().map(|(i, data)| BinSnapshot { id: BinId(i), data })
    }

    /// Number of bins ever opened (including still-empty cube slots).
    #[must_use]
    pub fn created_bins(&self) -> usize {
        self.bins.len()
    }

    /// Number of bins hosting at least one replica — the "servers used"
    /// metric of the paper's evaluation.
    #[must_use]
    pub fn open_bins(&self) -> usize {
        self.nonempty_bins
    }

    /// Total tenant load placed so far.
    #[must_use]
    pub fn total_load(&self) -> f64 {
        self.total_load
    }

    /// Number of tenants placed.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The bins hosting `tenant`'s replicas, or `None` if unknown.
    #[must_use]
    pub fn tenant_bins(&self, tenant: TenantId) -> Option<&[BinId]> {
        self.tenants.get(&tenant).map(|r| &*r.bins)
    }

    /// `tenant`'s position in the arrival order, or `None` if unknown.
    /// Positions order tenants by arrival; they shift at compaction, so
    /// compare them only between mutations.
    pub(crate) fn arrival_slot(&self, tenant: TenantId) -> Option<usize> {
        self.tenants.get(&tenant).map(|r| r.slot)
    }

    /// The full load of `tenant`, or `None` if unknown.
    #[must_use]
    pub fn tenant_load(&self, tenant: TenantId) -> Option<f64> {
        self.tenants.get(&tenant).map(|r| r.load)
    }

    /// Iterates over placed tenants in arrival order as
    /// `(id, load, hosting_bins)`.
    pub fn tenants(&self) -> impl Iterator<Item = (TenantId, f64, &[BinId])> {
        self.arrival_order.iter().enumerate().filter_map(move |(slot, id)| {
            let rec = self.tenants.get(id).filter(|r| r.slot == slot)?;
            Some((*id, rec.load, &*rec.bins))
        })
    }

    /// Current load of `bin`.
    #[must_use]
    pub fn level(&self, bin: BinId) -> f64 {
        self.bins[bin.0].level
    }

    /// Shared load `|a ∩ b|`: the load on `a` of replicas whose tenant also
    /// has a replica on `b`.
    #[must_use]
    pub fn shared_load(&self, a: BinId, b: BinId) -> f64 {
        self.shared.get(a, b)
    }

    /// Worst-case failover load onto `bin`: the sum of its `γ − 1` largest
    /// shared loads (the reserve the robustness condition requires).
    #[must_use]
    pub fn worst_failover(&self, bin: BinId) -> f64 {
        self.shared.worst_failover(bin)
    }

    /// Sum of the `k` largest shared loads of `bin` after the tentative
    /// `adjustments`, for `k ≤ γ − 1`.
    ///
    /// `k = 1` is the single-failure reserve used by baselines like RFI
    /// that only protect against one server failure.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `k > γ − 1` (the cached top entries cannot
    /// answer deeper queries).
    #[must_use]
    pub fn top_shared_sum_with(&self, bin: BinId, adjustments: &[(BinId, f64)], k: usize) -> f64 {
        self.shared.top_shared_sum_with(bin, adjustments, k)
    }

    /// Iterates over `(peer, shared_load)` pairs for `bin`.
    pub fn shared_peers(&self, bin: BinId) -> impl Iterator<Item = (BinId, f64)> + '_ {
        self.shared.peers(bin)
    }

    /// Whether the placement satisfies the robustness condition of paper §II
    /// for every bin (no overload under any `γ − 1` simultaneous failures).
    ///
    /// Shorthand for [`crate::validity::check`]`.is_robust()`.
    #[must_use]
    pub fn is_robust(&self) -> bool {
        crate::validity::check(self).is_robust()
    }

    /// Aggregate statistics of the placement.
    #[must_use]
    pub fn stats(&self) -> PlacementStats {
        let mut max_level: f64 = 0.0;
        let mut min_level = f64::INFINITY;
        let mut replicas = 0;
        for bin in self.bins.iter().filter(|b| !b.contents.is_empty()) {
            max_level = max_level.max(bin.level);
            min_level = min_level.min(bin.level);
            replicas += bin.contents.len();
        }
        if self.nonempty_bins == 0 {
            min_level = 0.0;
        }
        PlacementStats {
            tenants: self.tenants.len(),
            replicas,
            open_bins: self.nonempty_bins,
            created_bins: self.bins.len(),
            total_load: self.total_load,
            mean_utilization: if self.nonempty_bins == 0 {
                0.0
            } else {
                self.total_load / self.nonempty_bins as f64
            },
            max_level,
            min_level,
        }
    }

    /// Fragmentation statistics: how far the placement's open-bin count has
    /// drifted above the `⌈total_load⌉` lower bound, plus the fill
    /// distribution defragmentation drains from.
    #[must_use]
    pub fn fragmentation(&self) -> FragmentationStats {
        let mut levels: Vec<f64> =
            self.bins.iter().filter(|b| !b.contents.is_empty()).map(|b| b.level).collect();
        levels.sort_by(f64::total_cmp);
        let open_bins = levels.len();
        let mean_fill = if open_bins == 0 { 0.0 } else { self.total_load / open_bins as f64 };
        // p10 via the nearest-rank method on the ascending fill list; with
        // no open bins both percentile and ratio degenerate to 0/1.
        let p10_fill = if open_bins == 0 {
            0.0
        } else {
            let rank = ((open_bins as f64) * 0.10).ceil().max(1.0) as usize;
            levels[rank - 1]
        };
        let floor = self.total_load.ceil().max(1.0);
        let fragmentation_ratio = if open_bins == 0 { 1.0 } else { open_bins as f64 / floor };
        FragmentationStats {
            open_bins,
            total_load: self.total_load,
            mean_fill,
            p10_fill,
            fragmentation_ratio,
        }
    }
}

/// Aggregate statistics of a [`Placement`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PlacementStats {
    /// Tenants placed.
    pub tenants: usize,
    /// Total replicas hosted across all bins.
    pub replicas: usize,
    /// Bins hosting at least one replica ("servers used").
    pub open_bins: usize,
    /// Bins ever opened, including empty cube slots.
    pub created_bins: usize,
    /// Sum of tenant loads.
    pub total_load: f64,
    /// `total_load / open_bins`; the paper's "average server utilization".
    pub mean_utilization: f64,
    /// Highest bin level.
    pub max_level: f64,
    /// Lowest non-empty bin level.
    pub min_level: f64,
}

/// Fragmentation statistics of a [`Placement`].
///
/// `⌈total_load⌉` is a lower bound on servers for any placement (even
/// without replication or failover reserves), so
/// `fragmentation_ratio = open_bins / ⌈total_load⌉` measures drift above
/// the ideal: 1.0 is unimprovable, and values ≫ 1 mark placements that
/// departures have hollowed out.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct FragmentationStats {
    /// Bins hosting at least one replica.
    pub open_bins: usize,
    /// Sum of tenant loads.
    pub total_load: f64,
    /// `total_load / open_bins` (0 when no bins are open).
    pub mean_fill: f64,
    /// 10th-percentile bin fill (nearest rank, ascending) — the thin tail
    /// defragmentation drains first.
    pub p10_fill: f64,
    /// `open_bins / max(⌈total_load⌉, 1)`; 1.0 when no bins are open.
    pub fragmentation_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    fn three_bin_placement() -> (Placement, Vec<BinId>) {
        let mut p = Placement::new(2);
        let bins: Vec<BinId> = (0..3).map(|_| p.open_bin(None)).collect();
        (p, bins)
    }

    #[test]
    fn placing_updates_levels_and_shared() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.4), &[b[1], b[2]]).unwrap();
        assert!((p.level(b[0]) - 0.3).abs() < 1e-12);
        assert!((p.level(b[1]) - 0.5).abs() < 1e-12);
        assert!((p.shared_load(b[0], b[1]) - 0.3).abs() < 1e-12);
        assert!((p.shared_load(b[1], b[2]) - 0.2).abs() < 1e-12);
        assert_eq!(p.shared_load(b[0], b[2]), 0.0);
        assert!((p.total_load() - 1.0).abs() < 1e-12);
        assert_eq!(p.tenant_count(), 2);
    }

    #[test]
    fn duplicate_tenant_rejected() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        let err = p.place_tenant(&tenant(0, 0.5), &[b[1], b[2]]).unwrap_err();
        assert!(matches!(err, Error::DuplicateTenant { .. }));
    }

    #[test]
    fn wrong_bin_count_rejected() {
        let (mut p, b) = three_bin_placement();
        assert!(p.place_tenant(&tenant(0, 0.5), &[b[0]]).is_err());
        assert!(p.place_tenant(&tenant(1, 0.5), &[b[0], b[1], b[2]]).is_err());
    }

    #[test]
    fn repeated_bin_rejected() {
        let (mut p, b) = three_bin_placement();
        assert!(p.place_tenant(&tenant(0, 0.5), &[b[0], b[0]]).is_err());
    }

    #[test]
    fn unknown_bin_rejected() {
        let (mut p, b) = three_bin_placement();
        assert!(p.place_tenant(&tenant(0, 0.5), &[b[0], BinId::new(99)]).is_err());
    }

    #[test]
    fn open_bins_counts_only_nonempty() {
        let (mut p, b) = three_bin_placement();
        assert_eq!(p.open_bins(), 0);
        assert_eq!(p.created_bins(), 3);
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        assert_eq!(p.open_bins(), 2);
    }

    #[test]
    fn remove_tenant_reverses_placement() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.4), &[b[1], b[2]]).unwrap();
        let (load, bins) = p.remove_tenant(TenantId::new(0)).unwrap();
        assert!((load - 0.6).abs() < 1e-12);
        assert_eq!(bins, vec![b[0], b[1]]);
        assert_eq!(p.level(b[0]), 0.0);
        assert!((p.level(b[1]) - 0.2).abs() < 1e-12);
        assert_eq!(p.shared_load(b[0], b[1]), 0.0);
        assert!((p.shared_load(b[1], b[2]) - 0.2).abs() < 1e-12);
        assert_eq!(p.open_bins(), 2, "emptied bin stops counting as open");
        assert_eq!(p.tenant_count(), 1);
        assert!((p.total_load() - 0.4).abs() < 1e-12);
        assert_eq!(p.tenant_bins(TenantId::new(0)), None);
        let order: Vec<u64> = p.tenants().map(|(id, _, _)| id.get()).collect();
        assert_eq!(order, vec![1], "departed tenants leave the arrival order");
    }

    #[test]
    fn remove_unknown_tenant_errors() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        assert!(matches!(p.remove_tenant(TenantId::new(9)), Err(Error::UnknownTenant { .. })));
        p.remove_tenant(TenantId::new(0)).unwrap();
        assert!(matches!(p.remove_tenant(TenantId::new(0)), Err(Error::UnknownTenant { .. }),));
    }

    #[test]
    fn removed_id_can_be_placed_again() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        p.remove_tenant(TenantId::new(0)).unwrap();
        p.place_tenant(&tenant(0, 0.3), &[b[1], b[2]]).unwrap();
        assert!((p.total_load() - 0.3).abs() < 1e-12);
        assert_eq!(p.tenant_bins(TenantId::new(0)), Some(&[b[1], b[2]][..]));
    }

    #[test]
    fn move_replica_shifts_level_and_shared() {
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..5).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1], b[2]]).unwrap();
        p.place_tenant(&tenant(1, 0.3), &[b[0], b[1], b[4]]).unwrap();
        p.move_replica(TenantId::new(0), b[0], b[3]).unwrap();
        assert!((p.level(b[0]) - 0.1).abs() < 1e-12, "only tenant 1's replica remains");
        assert!((p.level(b[3]) - 0.2).abs() < 1e-12);
        assert_eq!(p.shared_load(b[0], b[2]), 0.0);
        assert!((p.shared_load(b[3], b[1]) - 0.2).abs() < 1e-12);
        assert!((p.shared_load(b[3], b[2]) - 0.2).abs() < 1e-12);
        assert!((p.shared_load(b[0], b[1]) - 0.1).abs() < 1e-12);
        assert_eq!(p.tenant_bins(TenantId::new(0)), Some(&[b[3], b[1], b[2]][..]));
        assert!((p.total_load() - 0.9).abs() < 1e-12, "moves do not change total load");
    }

    #[test]
    fn move_replica_rejects_bad_endpoints() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        assert!(matches!(
            p.move_replica(TenantId::new(9), b[0], b[2]),
            Err(Error::UnknownTenant { .. })
        ));
        assert!(p.move_replica(TenantId::new(0), b[2], b[0]).is_err());
        assert!(p.move_replica(TenantId::new(0), b[0], b[1]).is_err());
        assert!(p.move_replica(TenantId::new(0), b[0], BinId::new(99)).is_err());
    }

    #[test]
    fn update_load_shifts_levels_shared_and_total() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.4), &[b[1], b[2]]).unwrap();
        let (old, bins) = p.update_load(TenantId::new(0), 0.8).unwrap();
        assert!((old - 0.6).abs() < 1e-12);
        assert_eq!(bins, vec![b[0], b[1]]);
        assert!((p.level(b[0]) - 0.4).abs() < 1e-12);
        assert!((p.level(b[1]) - 0.6).abs() < 1e-12);
        assert!((p.shared_load(b[0], b[1]) - 0.4).abs() < 1e-12);
        assert!((p.shared_load(b[1], b[2]) - 0.2).abs() < 1e-12, "other tenants untouched");
        assert!((p.total_load() - 1.2).abs() < 1e-12);
        assert_eq!(p.tenant_load(TenantId::new(0)), Some(0.8));
        // Downward drift reverses symmetrically.
        p.update_load(TenantId::new(0), 0.2).unwrap();
        assert!((p.level(b[0]) - 0.1).abs() < 1e-12);
        assert!((p.shared_load(b[0], b[1]) - 0.1).abs() < 1e-12);
        assert!((p.total_load() - 0.6).abs() < 1e-12);
        // The incremental bookkeeping still matches a from-scratch rebuild.
        assert!(crate::oracle::audit(&p).is_ok());
    }

    #[test]
    fn update_load_rejects_invalid_values() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        for bad in [0.0, -0.3, 1.0 + 1e-6, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(p.update_load(TenantId::new(0), bad), Err(Error::InvalidLoad { .. })),
                "load {bad} must be rejected"
            );
        }
        assert!(matches!(p.update_load(TenantId::new(9), 0.5), Err(Error::UnknownTenant { .. })));
        // Failed updates leave the placement untouched.
        assert_eq!(p.tenant_load(TenantId::new(0)), Some(0.5));
        assert!((p.level(b[0]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn update_load_to_same_value_is_a_no_op() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.5), &[b[0], b[1]]).unwrap();
        let (old, _) = p.update_load(TenantId::new(0), 0.5).unwrap();
        assert!((old - 0.5).abs() < 1e-12);
        assert!((p.level(b[0]) - 0.25).abs() < 1e-12);
        assert!((p.shared_load(b[0], b[1]) - 0.25).abs() < 1e-12);
        assert!(crate::oracle::audit(&p).is_ok());
    }

    #[test]
    fn worst_failover_tracks_largest_peers() {
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..5).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1], b[2]]).unwrap();
        p.place_tenant(&tenant(1, 0.3), &[b[0], b[3], b[4]]).unwrap();
        // bin 0 shares 0.2 with bins 1 and 2, and 0.1 with bins 3 and 4;
        // γ−1 = 2 worst failures give 0.4.
        assert!((p.worst_failover(b[0]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn tenants_iterate_in_arrival_order() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(5, 0.5), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(2, 0.4), &[b[1], b[2]]).unwrap();
        let order: Vec<u64> = p.tenants().map(|(id, _, _)| id.get()).collect();
        assert_eq!(order, vec![5, 2]);
        assert_eq!(p.tenant_bins(TenantId::new(5)), Some(&[b[0], b[1]][..]));
        assert_eq!(p.tenant_load(TenantId::new(2)), Some(0.4));
        assert_eq!(p.tenant_bins(TenantId::new(99)), None);
    }

    #[test]
    fn arrival_order_survives_interleaved_removals() {
        // Places and removals at the front, middle and end, and
        // re-placements of departed ids (the largest id among them), each
        // step compared with a `Vec` kept in order by `retain`: the order
        // contract a faster removal must keep.
        const MAX: u64 = u64::MAX;
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..2).map(|_| p.open_bin(None)).collect();
        let mut model: Vec<u64> = Vec::new();
        let place = |p: &mut Placement, model: &mut Vec<u64>, id: u64| {
            p.place_tenant(&tenant(id, 0.01), &b).unwrap();
            model.push(id);
        };
        let remove = |p: &mut Placement, model: &mut Vec<u64>, id: u64| {
            p.remove_tenant(TenantId::new(id)).unwrap();
            model.retain(|&m| m != id);
        };
        let check = |p: &Placement, model: &[u64]| {
            let order: Vec<u64> = p.tenants().map(|(id, _, _)| id.get()).collect();
            assert_eq!(order, model);
            assert_eq!(p.tenant_count(), model.len());
        };
        for id in (0..8).chain([MAX]) {
            place(&mut p, &mut model, id);
        }
        for id in [0, 4, 7, MAX] {
            remove(&mut p, &mut model, id);
            check(&p, &model);
        }
        for id in [4, 0, MAX, 8] {
            place(&mut p, &mut model, id);
            check(&p, &model);
        }
        for id in [1, 2, 3, 5, 6, 4] {
            remove(&mut p, &mut model, id);
            check(&p, &model);
        }
        for id in [3, 1] {
            place(&mut p, &mut model, id);
            check(&p, &model);
        }
        for id in [0, MAX, 8, 3, 1] {
            remove(&mut p, &mut model, id);
            check(&p, &model);
        }
        place(&mut p, &mut model, 8);
        check(&p, &model);

        // A seeded run over a small id pool: each draw places the id or,
        // if it is live, removes it, so departed ids are re-placed while
        // their dead slots remain, and many compactions are crossed.
        let mut seed = 0x5eed_u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        };
        let mut compactions = 0;
        for _ in 0..4_000 {
            let id = next() % 400;
            if model.contains(&id) {
                let slots = p.arrival_order.len();
                remove(&mut p, &mut model, id);
                if p.arrival_order.len() < slots {
                    // Dead slots whose id was placed again go too.
                    assert_eq!(p.arrival_order.len(), model.len());
                    compactions += 1;
                }
            } else {
                place(&mut p, &mut model, id);
            }
            check(&p, &model);
        }
        assert!(compactions >= 20, "only {compactions} compactions");
    }

    #[test]
    fn tenant_record_stays_32_bytes() {
        // A fleet holds one record per tenant (bulk placement: 1M).
        assert_eq!(std::mem::size_of::<TenantRecord>(), 32);
        assert_eq!(std::mem::size_of::<TenantId>(), 8);
    }

    /// Everything a move may touch, as bits: levels and content lists,
    /// tenants with their bin order, every shared-load row (sorted by
    /// peer) and top cache, the open-bin count and the total load.
    #[allow(clippy::type_complexity)]
    fn exact_state(
        p: &Placement,
    ) -> (
        Vec<(u64, Vec<(TenantId, u64)>)>,
        Vec<(TenantId, u64, Vec<BinId>)>,
        Vec<Vec<(BinId, u64)>>,
        Vec<Vec<(u64, BinId)>>,
        usize,
        u64,
    ) {
        let bins = p
            .bins()
            .map(|b| {
                let contents = b.contents().iter().map(|&(t, l)| (t, l.to_bits())).collect();
                (b.level().to_bits(), contents)
            })
            .collect();
        let tenants = p.tenants().map(|(t, l, bins)| (t, l.to_bits(), bins.to_vec())).collect();
        let rows = p
            .bins()
            .map(|b| {
                let mut row: Vec<(BinId, u64)> =
                    p.shared_peers(b.id()).map(|(peer, v)| (peer, v.to_bits())).collect();
                row.sort_unstable();
                row
            })
            .collect();
        let tops = p
            .bins()
            .map(|b| p.shared.top_entries(b.id()).iter().map(|&(v, q)| (v.to_bits(), q)).collect())
            .collect();
        (bins, tenants, rows, tops, p.open_bins(), p.total_load().to_bits())
    }

    #[test]
    fn undone_moves_restore_the_placement_bit_for_bit() {
        // A churned γ = 3 placement (removals, load re-estimates, empty
        // bins); runs of up to five moves, undone in reverse, must leave
        // exactly the state a clone taken before the run holds.
        let mut seed = 0x0dd_ba11_u64;
        let mut next = |bound: usize| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize % bound
        };
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..14).map(|_| p.open_bin(None)).collect();
        let mut live: Vec<u64> = Vec::new();
        for id in 0..60u64 {
            let mut bins: Vec<BinId> = Vec::new();
            while bins.len() < 3 {
                let bin = b[next(12)];
                if !bins.contains(&bin) {
                    bins.push(bin);
                }
            }
            p.place_tenant(&tenant(id, 0.01 + next(30) as f64 / 100.0), &bins).unwrap();
            live.push(id);
        }
        for _ in 0..25 {
            let id = live.swap_remove(next(live.len()));
            p.remove_tenant(TenantId::new(id)).unwrap();
        }
        for &id in live.iter().step_by(3) {
            p.update_load(TenantId::new(id), 0.02 + next(20) as f64 / 100.0).unwrap();
        }
        // The only resident of b12 (b13 stays empty).
        p.place_tenant(&tenant(100, 0.3), &[b[12], b[0], b[1]]).unwrap();
        live.push(100);
        let (mut opened, mut closed) = (false, false);
        for round in 0..200 {
            let clone = p.clone();
            let before = exact_state(&p);
            let mut log = Vec::new();
            for _ in 0..=round % 5 {
                let t = TenantId::new(live[next(live.len())]);
                let hosts = p.tenant_bins(t).unwrap().to_vec();
                let from = hosts[next(hosts.len())];
                let to = loop {
                    let to = b[next(b.len())];
                    if !hosts.contains(&to) {
                        break to;
                    }
                };
                let open = p.open_bins();
                log.push(p.move_replica_undoable(t, from, to).unwrap());
                opened |= p.open_bins() > open;
                closed |= p.open_bins() < open;
            }
            assert!(p.move_replica_undoable(TenantId::new(999), b[0], b[1]).is_err());
            while let Some(undo) = log.pop() {
                p.undo_move(undo);
            }
            assert_eq!(exact_state(&p), before, "round {round}");
            assert_eq!(exact_state(&clone), before);
        }
        assert!(opened && closed, "moves must fill empty bins and empty others");
        assert!(crate::oracle::audit(&p).is_ok());
    }

    #[test]
    fn stats_aggregate() {
        let (mut p, b) = three_bin_placement();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.4), &[b[1], b[2]]).unwrap();
        let s = p.stats();
        assert_eq!(s.tenants, 2);
        assert_eq!(s.replicas, 4);
        assert_eq!(s.open_bins, 3);
        assert!((s.total_load - 1.0).abs() < 1e-12);
        assert!((s.mean_utilization - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.max_level - 0.5).abs() < 1e-12);
        assert!((s.min_level - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fragmentation_tracks_open_bin_drift() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..12).map(|_| p.open_bin(None)).collect();
        // Ten thin bins (0.05 each side) and one half-full pair: total load
        // 1.0, so the ceil lower bound is 1 server but 12 are open.
        for i in 0..5 {
            p.place_tenant(&tenant(i, 0.1), &[b[2 * i as usize], b[2 * i as usize + 1]]).unwrap();
        }
        p.place_tenant(&tenant(9, 0.5), &[b[10], b[11]]).unwrap();
        let f = p.fragmentation();
        assert_eq!(f.open_bins, 12);
        assert!((f.total_load - 1.0).abs() < 1e-12);
        assert!((f.mean_fill - 1.0 / 12.0).abs() < 1e-12);
        assert!((f.p10_fill - 0.05).abs() < 1e-12);
        assert!((f.fragmentation_ratio - 12.0).abs() < 1e-12);
    }

    #[test]
    fn fragmentation_of_empty_placement_degenerates() {
        let p = Placement::new(2);
        let f = p.fragmentation();
        assert_eq!(f.open_bins, 0);
        assert_eq!(f.mean_fill, 0.0);
        assert_eq!(f.p10_fill, 0.0);
        assert!((f.fragmentation_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_placement_stats() {
        let p = Placement::new(2);
        let s = p.stats();
        assert_eq!(s.open_bins, 0);
        assert_eq!(s.mean_utilization, 0.0);
        assert_eq!(s.min_level, 0.0);
    }
}
