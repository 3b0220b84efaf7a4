//! Differential placement audit: a naive reference oracle plus a
//! consolidator wrapper that cross-checks every incremental decision.
//!
//! The fast path of every algorithm in this workspace rests on the
//! incremental bookkeeping of [`crate::shared`] — per-bin
//! levels, the pairwise shared-load matrix, and cached top-`γ−1` failover
//! reserves. A bug there (e.g. a truncated adjustment buffer at large `γ`)
//! does not crash; it silently accepts a placement that violates
//! Theorem 1. The [`Oracle`] recomputes all of those quantities from
//! nothing but the tenant list — `O(bins · γ)` state rebuilt per audit, no
//! caches, no incremental updates — and [`audit`] compares the two within
//! [`crate::EPSILON`]. [`AuditedConsolidator`] wires the audit behind any
//! [`Consolidator`] so differential test suites and the `cubefit check
//! --audit` command catch unsound-but-plausible placements the moment they
//! are produced, with a replayable JSON trace.

use crate::algorithm::{Consolidator, LoadUpdateOutcome, PlacementOutcome, RemovalOutcome};
use crate::bin::BinId;
use crate::error::Result;
use crate::placement::Placement;
use crate::recovery::RecoveryReport;
use crate::tenant::{Tenant, TenantId};
use crate::EPSILON;
use std::collections::HashMap;
use std::fmt;

/// Tolerance for incremental-vs-reference comparisons.
///
/// Both sides sum the same replica loads, only in different orders, so any
/// honest divergence is either zero or a dropped/duplicated term — far
/// larger than accumulated rounding at these magnitudes.
pub const AUDIT_TOLERANCE: f64 = 1e-9;

/// Reference placement state recomputed from scratch.
///
/// Built by [`Oracle::rebuild`] from nothing but
/// [`Placement::tenants`] — the arrival-ordered `(tenant, load, bins)`
/// triples — so it shares no code path and no cached state with the
/// incremental bookkeeping it is used to check.
#[derive(Debug, Clone)]
pub struct Oracle {
    gamma: usize,
    /// Level of every bin (index = raw bin id), recomputed by summation.
    levels: Vec<f64>,
    /// Sparse shared-load rows: `rows[i][j] = |Sᵢ ∩ Sⱼ|`.
    rows: Vec<HashMap<BinId, f64>>,
}

impl Oracle {
    /// Recomputes levels and the full shared-load matrix of `placement`
    /// from its tenant list.
    #[must_use]
    pub fn rebuild(placement: &Placement) -> Self {
        let bins = placement.created_bins();
        let gamma = placement.gamma();
        let mut levels = vec![0.0f64; bins];
        let mut rows: Vec<HashMap<BinId, f64>> = vec![HashMap::new(); bins];
        for (_, load, hosts) in placement.tenants() {
            let replica = load / gamma as f64;
            for (i, &bin) in hosts.iter().enumerate() {
                levels[bin.index()] += replica;
                for (j, &peer) in hosts.iter().enumerate() {
                    if i != j {
                        *rows[bin.index()].entry(peer).or_insert(0.0) += replica;
                    }
                }
            }
        }
        Oracle { gamma, levels, rows }
    }

    /// [`Oracle::rebuild`], parallelized: the tenant list is partitioned
    /// across `workers` threads by `tenant_id % workers`, each worker sums
    /// its partition's levels and shared-load rows into partial state, and
    /// the partials are merged by summation in worker order.
    ///
    /// The merged numbers can differ from [`Oracle::rebuild`]'s only by
    /// float association (the same replica terms are summed in a different
    /// order), which [`AUDIT_TOLERANCE`] absorbs by design.
    #[must_use]
    pub fn rebuild_parallel(placement: &Placement, workers: usize) -> Self {
        let workers = workers.max(1);
        let bins = placement.created_bins();
        let gamma = placement.gamma();
        let tenants: Vec<(TenantId, f64, &[BinId])> = placement.tenants().collect();
        // Per-worker partial state: (levels, shared-load rows).
        type Partial = (Vec<f64>, Vec<HashMap<BinId, f64>>);
        let partials: Vec<Partial> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let tenants = &tenants;
                    scope.spawn(move |_| {
                        let mut levels = vec![0.0f64; bins];
                        let mut rows: Vec<HashMap<BinId, f64>> = vec![HashMap::new(); bins];
                        let owned = tenants
                            .iter()
                            .filter(|(id, _, _)| (id.get() % workers as u64) as usize == worker);
                        for (_, load, hosts) in owned {
                            let replica = load / gamma as f64;
                            for (i, &bin) in hosts.iter().enumerate() {
                                levels[bin.index()] += replica;
                                for (j, &peer) in hosts.iter().enumerate() {
                                    if i != j {
                                        *rows[bin.index()].entry(peer).or_insert(0.0) += replica;
                                    }
                                }
                            }
                        }
                        (levels, rows)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("audit worker panicked")).collect()
        })
        .expect("audit worker panicked");
        let mut levels = vec![0.0f64; bins];
        let mut rows: Vec<HashMap<BinId, f64>> = vec![HashMap::new(); bins];
        for (partial_levels, partial_rows) in partials {
            for (bin, level) in partial_levels.into_iter().enumerate() {
                levels[bin] += level;
            }
            for (bin, row) in partial_rows.into_iter().enumerate() {
                for (peer, value) in row {
                    *rows[bin].entry(peer).or_insert(0.0) += value;
                }
            }
        }
        Oracle { gamma, levels, rows }
    }

    /// Replication factor of the audited placement.
    #[must_use]
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Number of bins covered.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.levels.len()
    }

    /// Reference level of `bin`.
    #[must_use]
    pub fn level(&self, bin: BinId) -> f64 {
        self.levels[bin.index()]
    }

    /// Reference shared load `|a ∩ b|`.
    #[must_use]
    pub fn shared_load(&self, a: BinId, b: BinId) -> f64 {
        self.rows[a.index()].get(&b).copied().unwrap_or(0.0)
    }

    /// Reference worst-case failover of `bin`: its `γ − 1` largest shared
    /// loads, found by sorting the full row (no cache involved).
    #[must_use]
    pub fn worst_failover(&self, bin: BinId) -> f64 {
        self.top_shared_sum(bin, self.gamma - 1)
    }

    /// Sum of the `k` largest shared loads of `bin`.
    #[must_use]
    pub fn top_shared_sum(&self, bin: BinId, k: usize) -> f64 {
        let mut row: Vec<f64> = self.rows[bin.index()].values().copied().collect();
        row.sort_unstable_by(|a, b| b.total_cmp(a));
        row.iter().take(k).sum()
    }

    /// Whether the placement satisfies Theorem 1 by the reference numbers:
    /// `level + worst_failover ≤ 1 + EPSILON` for every bin.
    #[must_use]
    pub fn is_robust(&self) -> bool {
        self.worst_margin() >= -EPSILON
    }

    /// Smallest margin `1 − level − worst_failover` over non-empty bins
    /// (`1.0` for an empty placement, matching
    /// [`crate::validity::check`]).
    #[must_use]
    pub fn worst_margin(&self) -> f64 {
        let mut worst = f64::INFINITY;
        for (i, &level) in self.levels.iter().enumerate() {
            if level == 0.0 && self.rows[i].is_empty() {
                continue;
            }
            worst = worst.min(1.0 - level - self.worst_failover(BinId::new(i)));
        }
        if worst == f64::INFINITY {
            1.0
        } else {
            worst
        }
    }
}

/// Which audited quantity diverged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DivergenceKind {
    /// A bin's level.
    Level,
    /// A pairwise shared load (the peer names the column).
    SharedLoad {
        /// The other bin of the diverging matrix entry.
        peer: BinId,
    },
    /// A bin's worst-case failover reserve.
    WorstFailover,
    /// The overall robustness verdict (`1.0` = robust, `0.0` = not).
    Robustness,
}

/// One disagreement between the incremental bookkeeping and the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// What diverged.
    pub kind: DivergenceKind,
    /// The bin the quantity belongs to.
    pub bin: BinId,
    /// The incremental (cached) value.
    pub incremental: f64,
    /// The from-scratch reference value.
    pub reference: f64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DivergenceKind::Level => write!(
                f,
                "level({}): incremental {} vs oracle {}",
                self.bin, self.incremental, self.reference
            ),
            DivergenceKind::SharedLoad { peer } => write!(
                f,
                "shared({}, {peer}): incremental {} vs oracle {}",
                self.bin, self.incremental, self.reference
            ),
            DivergenceKind::WorstFailover => write!(
                f,
                "worst_failover({}): incremental {} vs oracle {}",
                self.bin, self.incremental, self.reference
            ),
            DivergenceKind::Robustness => write!(
                f,
                "is_robust: incremental {} vs oracle {}",
                self.incremental != 0.0,
                self.reference != 0.0
            ),
        }
    }
}

/// Cross-checks every incrementally maintained quantity of `placement`
/// against a freshly rebuilt [`Oracle`].
///
/// Compares, within [`AUDIT_TOLERANCE`]:
///
/// * every bin's level,
/// * every non-zero shared-load matrix entry, in both directions (an entry
///   present on one side and absent on the other is a divergence),
/// * every bin's worst-case failover reserve,
/// * the overall [`Placement::is_robust`] verdict.
///
/// # Errors
///
/// Returns the full list of divergences (never empty) if any quantity
/// disagrees.
pub fn audit(placement: &Placement) -> std::result::Result<(), Vec<Divergence>> {
    let oracle = Oracle::rebuild(placement);
    let divergences = compare(placement, &oracle);
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(divergences)
    }
}

/// Compares every incrementally maintained quantity of `placement` against
/// an already-built [`Oracle`] (see [`audit`] for the quantity list) and
/// returns the divergences — empty when the two agree within
/// [`AUDIT_TOLERANCE`].
#[must_use]
pub fn compare(placement: &Placement, oracle: &Oracle) -> Vec<Divergence> {
    let mut divergences = Vec::new();
    for bin in placement.bins() {
        let id = bin.id();
        let level = bin.level();
        if (level - oracle.level(id)).abs() > AUDIT_TOLERANCE {
            divergences.push(Divergence {
                kind: DivergenceKind::Level,
                bin: id,
                incremental: level,
                reference: oracle.level(id),
            });
        }
        // Shared rows: the incremental side enumerates its entries; the
        // oracle side covers entries the incremental map dropped.
        for (peer, value) in placement.shared_peers(id) {
            if (value - oracle.shared_load(id, peer)).abs() > AUDIT_TOLERANCE {
                divergences.push(Divergence {
                    kind: DivergenceKind::SharedLoad { peer },
                    bin: id,
                    incremental: value,
                    reference: oracle.shared_load(id, peer),
                });
            }
        }
        for (&peer, &value) in &oracle.rows[id.index()] {
            if (placement.shared_load(id, peer) - value).abs() > AUDIT_TOLERANCE
                && !divergences
                    .iter()
                    .any(|d| d.bin == id && d.kind == DivergenceKind::SharedLoad { peer })
            {
                divergences.push(Divergence {
                    kind: DivergenceKind::SharedLoad { peer },
                    bin: id,
                    incremental: placement.shared_load(id, peer),
                    reference: value,
                });
            }
        }
        let failover = placement.worst_failover(id);
        if (failover - oracle.worst_failover(id)).abs() > AUDIT_TOLERANCE {
            divergences.push(Divergence {
                kind: DivergenceKind::WorstFailover,
                bin: id,
                incremental: failover,
                reference: oracle.worst_failover(id),
            });
        }
    }
    let incremental_robust = placement.is_robust();
    if incremental_robust != oracle.is_robust() {
        divergences.push(Divergence {
            kind: DivergenceKind::Robustness,
            bin: BinId::new(0),
            incremental: f64::from(u8::from(incremental_robust)),
            reference: f64::from(u8::from(oracle.is_robust())),
        });
    }
    divergences
}

/// [`audit`], parallelized: the reference oracle is rebuilt by `workers`
/// threads over id-partitioned tenant subsets ([`Oracle::rebuild_parallel`])
/// and compared against the incremental state. The verdict is the same as
/// [`audit`]'s — both sides sum identical replica terms, differing only by
/// float association, which stays far inside [`AUDIT_TOLERANCE`].
///
/// # Errors
///
/// Returns the full list of divergences (never empty) if any quantity
/// disagrees.
pub fn audit_parallel(
    placement: &Placement,
    workers: usize,
) -> std::result::Result<(), Vec<Divergence>> {
    let divergences = compare(placement, &Oracle::rebuild_parallel(placement, workers));
    if divergences.is_empty() {
        Ok(())
    } else {
        Err(divergences)
    }
}

/// Hand-formatted JSON dump of `placement` in the
/// [`crate::PlacementDump`] wire format, suitable for `cubefit check
/// --audit` replay.
///
/// Formatted without serde so the audit path works in contexts where the
/// `serde` feature is disabled; floats use Rust's shortest round-trip
/// representation, which is valid JSON.
#[must_use]
pub fn replay_json(placement: &Placement) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"gamma\":{},\"servers\":{},\"tenants\":[",
        placement.gamma(),
        placement.created_bins()
    );
    for (i, (tenant, load, bins)) in placement.tenants().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"tenant\":{},\"load\":{:?},\"servers\":[", tenant.get(), load);
        for (j, bin) in bins.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", bin.index());
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// A [`Consolidator`] wrapper that audits the wrapped algorithm's placement
/// against the [`Oracle`] after every accepted tenant.
///
/// On divergence it panics with the divergence list *and* a replayable
/// [`replay_json`] dump of the exact placement prefix, so a failing fuzz
/// run can be replayed offline with `cubefit check --audit`.
///
/// ```
/// use cubefit_core::oracle::AuditedConsolidator;
/// use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Load, Tenant};
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let config = CubeFitConfig::builder().replication(2).classes(5).build()?;
/// let mut audited = AuditedConsolidator::new(Box::new(CubeFit::new(config)));
/// audited.place(Tenant::with_load(Load::new(0.4)?))?; // audited in place
/// assert_eq!(audited.name(), "cubefit");
/// # Ok(())
/// # }
/// ```
pub struct AuditedConsolidator {
    inner: Box<dyn Consolidator>,
    placed: usize,
}

impl std::fmt::Debug for AuditedConsolidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditedConsolidator")
            .field("algorithm", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl AuditedConsolidator {
    /// Wraps `inner`, auditing after every placement.
    #[must_use]
    pub fn new(inner: Box<dyn Consolidator>) -> Self {
        AuditedConsolidator { inner, placed: 0 }
    }

    /// Number of placement audits performed so far.
    #[must_use]
    pub fn audits(&self) -> usize {
        self.placed
    }

    /// Audits the current placement, panicking with a replayable dump on
    /// divergence. `context` names the operation that just ran.
    fn audit_or_panic(&self, context: &str) {
        if let Err(divergences) = audit(self.inner.placement()) {
            let mut report =
                format!("placement audit failed for `{}` after {context}:\n", self.inner.name());
            for d in &divergences {
                report.push_str("  ");
                report.push_str(&d.to_string());
                report.push('\n');
            }
            report.push_str("replay with `cubefit check --audit` on:\n");
            report.push_str(&replay_json(self.inner.placement()));
            panic!("{report}");
        }
    }
}

/// Batch mutations keep the trait's default per-op loops on purpose: each
/// op goes through the audited [`Consolidator::place`]/
/// [`Consolidator::remove`]/[`Consolidator::update_load`] below, so a
/// divergence is pinned to the exact op that introduced it instead of to a
/// whole batch.
impl Consolidator for AuditedConsolidator {
    /// Places the tenant via the wrapped algorithm, then audits.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors untouched.
    ///
    /// # Panics
    ///
    /// Panics with the divergence list and a replayable dump if the
    /// incremental bookkeeping disagrees with the oracle.
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        let id = tenant.id();
        let outcome = self.inner.place(tenant)?;
        self.placed += 1;
        self.audit_or_panic(&format!("tenant {} (placement #{})", id.get(), self.placed));
        Ok(outcome)
    }

    /// Removes via the wrapped algorithm, then audits unconditionally
    /// (departures are rare relative to placements, and decrement paths
    /// are where incremental bookkeeping is most fragile).
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors untouched.
    ///
    /// # Panics
    ///
    /// Panics with the divergence list and a replayable dump if the
    /// incremental bookkeeping disagrees with the oracle after removal.
    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let outcome = self.inner.remove(tenant)?;
        self.audit_or_panic(&format!("removal of tenant {}", tenant.get()));
        Ok(outcome)
    }

    /// Recovers via the wrapped algorithm, then audits unconditionally and
    /// checks the recovery postcondition that every failed bin ends empty.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors untouched.
    ///
    /// # Panics
    ///
    /// Panics on oracle divergence, or if a failed bin still carries load
    /// after recovery returned.
    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        let report = self.inner.recover(failed)?;
        self.audit_or_panic(&format!("recovery from {} failed bin(s)", failed.len()));
        for &bin in failed {
            let level = self.inner.placement().level(bin);
            assert!(
                level == 0.0,
                "recovery for `{}` left failed bin {bin} at level {level}",
                self.inner.name()
            );
        }
        Ok(report)
    }

    /// Applies the load re-estimate via the wrapped algorithm, then audits
    /// unconditionally — drift steps re-weight the shared-load matrix along
    /// both add and sub paths, exactly where incremental bookkeeping is
    /// most fragile, so every drift step is replayed against the oracle.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors untouched.
    ///
    /// # Panics
    ///
    /// Panics with the divergence list and a replayable dump if the
    /// incremental bookkeeping disagrees with the oracle after the update.
    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        let outcome = self.inner.update_load(tenant, new_load)?;
        self.audit_or_panic(&format!("load update of tenant {} to {new_load}", tenant.get()));
        Ok(outcome)
    }

    /// Migrates via the wrapped algorithm, then audits unconditionally —
    /// every planned defrag move is replayed against the oracle, so a
    /// migration that corrupts a derived index is caught at the exact step
    /// that applied it.
    ///
    /// # Errors
    ///
    /// Propagates the wrapped algorithm's errors untouched.
    ///
    /// # Panics
    ///
    /// Panics with the divergence list and a replayable dump if the
    /// incremental bookkeeping disagrees with the oracle after the move.
    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        self.inner.migrate(tenant, from, to)?;
        self.audit_or_panic(&format!("migration of tenant {} from {from} to {to}", tenant.get()));
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(AuditedConsolidator { inner: self.inner.clone_box(), placed: self.placed })
    }

    fn placement(&self) -> &Placement {
        self.inner.placement()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_recorder(&mut self, recorder: cubefit_telemetry::Recorder) {
        self.inner.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Load;
    use crate::tenant::TenantId;

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    fn sample() -> Placement {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..4).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1]]).unwrap();
        p.place_tenant(&tenant(1, 0.3), &[b[0], b[2]]).unwrap();
        p.place_tenant(&tenant(2, 0.5), &[b[2], b[3]]).unwrap();
        p
    }

    #[test]
    fn oracle_matches_incremental_on_sample() {
        let p = sample();
        let oracle = Oracle::rebuild(&p);
        assert_eq!(oracle.gamma(), 2);
        assert_eq!(oracle.bins(), 4);
        for bin in p.bins() {
            assert!((oracle.level(bin.id()) - bin.level()).abs() < 1e-12);
            assert!((oracle.worst_failover(bin.id()) - p.worst_failover(bin.id())).abs() < 1e-12);
        }
        assert!((oracle.shared_load(BinId::new(0), BinId::new(1)) - 0.3).abs() < 1e-12);
        assert_eq!(oracle.is_robust(), p.is_robust());
        assert!(audit(&p).is_ok());
    }

    #[test]
    fn oracle_empty_placement() {
        let p = Placement::new(3);
        let oracle = Oracle::rebuild(&p);
        assert!(oracle.is_robust());
        assert_eq!(oracle.worst_margin(), 1.0);
        assert!(audit(&p).is_ok());
    }

    #[test]
    fn oracle_top_shared_sum_depths() {
        let mut p = Placement::new(3);
        let b: Vec<BinId> = (0..5).map(|_| p.open_bin(None)).collect();
        p.place_tenant(&tenant(0, 0.6), &[b[0], b[1], b[2]]).unwrap();
        p.place_tenant(&tenant(1, 0.3), &[b[0], b[3], b[4]]).unwrap();
        let oracle = Oracle::rebuild(&p);
        // Rows of bin 0: 0.2 (b1), 0.2 (b2), 0.1 (b3), 0.1 (b4).
        assert!((oracle.top_shared_sum(b[0], 1) - 0.2).abs() < 1e-12);
        assert!((oracle.top_shared_sum(b[0], 2) - 0.4).abs() < 1e-12);
        assert!((oracle.worst_failover(b[0]) - 0.4).abs() < 1e-12);
        assert!((oracle.top_shared_sum(b[0], 10) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn parallel_rebuild_matches_sequential_rebuild() {
        let mut p = Placement::new(2);
        let b: Vec<BinId> = (0..20).map(|_| p.open_bin(None)).collect();
        let mut state = 7u64;
        for id in 0..200u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let load = (((state >> 11) as f64 / (1u64 << 53) as f64) * 0.05).max(1e-6);
            let x = (state % 20) as usize;
            let y = (x + 1 + (state >> 7) as usize % 19) % 20;
            p.place_tenant(&tenant(id, load), &[b[x], b[y]]).unwrap();
        }
        let sequential = Oracle::rebuild(&p);
        for workers in [1, 2, 4, 8] {
            let parallel = Oracle::rebuild_parallel(&p, workers);
            for bin in p.bins() {
                let id = bin.id();
                assert!((parallel.level(id) - sequential.level(id)).abs() < AUDIT_TOLERANCE);
                assert!(
                    (parallel.worst_failover(id) - sequential.worst_failover(id)).abs()
                        < AUDIT_TOLERANCE
                );
                for (peer, value) in p.shared_peers(id) {
                    assert!((parallel.shared_load(id, peer) - value).abs() < AUDIT_TOLERANCE);
                }
            }
            assert_eq!(parallel.is_robust(), sequential.is_robust());
        }
    }

    #[test]
    fn audit_parallel_passes_on_a_sound_placement() {
        let p = sample();
        audit_parallel(&p, 4).unwrap_or_else(|e| panic!("{e:?}"));
        assert!(audit_parallel(&Placement::new(3), 2).is_ok());
    }

    #[test]
    fn parallel_rebuild_reports_unsound_state() {
        // Same corruption as `oracle_detects_unsound_robustness`, through
        // the parallel path: the incremental state is poked via update_load
        // deltas the tenant list does not explain.
        let mut p = sample();
        p.update_load(TenantId::new(0), 0.9).unwrap();
        let pristine = sample();
        let oracle = Oracle::rebuild_parallel(&pristine, 2);
        // Compare the drifted placement against the un-drifted oracle.
        assert!(!compare(&p, &oracle).is_empty());
    }

    #[test]
    fn oracle_detects_unsound_robustness() {
        let mut p = Placement::new(2);
        let a = p.open_bin(None);
        let b = p.open_bin(None);
        p.place_tenant(&tenant(0, 0.9), &[a, b]).unwrap();
        p.place_tenant(&tenant(1, 0.9), &[a, b]).unwrap();
        let oracle = Oracle::rebuild(&p);
        assert!(!oracle.is_robust());
        assert!(oracle.worst_margin() < 0.0);
        // The incremental side agrees here, so the audit still passes.
        assert!(audit(&p).is_ok());
    }

    #[test]
    fn replay_json_roundtrips_through_dump() {
        let p = sample();
        let json = replay_json(&p);
        #[cfg(feature = "serde")]
        {
            let dump: crate::PlacementDump = serde_json::from_str(&json).unwrap();
            let rebuilt = dump.to_placement().unwrap();
            assert_eq!(rebuilt.tenant_count(), p.tenant_count());
            assert_eq!(rebuilt.created_bins(), p.created_bins());
            for bin in p.bins() {
                assert!((rebuilt.level(bin.id()) - bin.level()).abs() < 1e-12);
            }
        }
        assert!(json.starts_with("{\"gamma\":2,\"servers\":4"));
    }

    #[derive(Clone)]
    struct FreshBins(Placement);
    impl Consolidator for FreshBins {
        fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
            let gamma = self.0.gamma();
            let bins: Vec<BinId> = (0..gamma).map(|_| self.0.open_bin(None)).collect();
            self.0.place_tenant(&tenant, &bins)?;
            Ok(PlacementOutcome {
                tenant: tenant.id(),
                opened: bins.len(),
                bins,
                stage: crate::algorithm::PlacementStage::Direct,
            })
        }
        fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
            let (load, bins) = self.0.remove_tenant(tenant)?;
            Ok(RemovalOutcome { tenant, load, bins })
        }
        fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
            crate::recovery::recover_replicas(
                &mut self.0,
                failed,
                (),
                |_, p, t, from, _| {
                    crate::recovery::pick_target(
                        p,
                        t,
                        from,
                        failed,
                        (0..p.created_bins()).map(BinId::new),
                    )
                },
                |_, _, _, _, _, _| {},
            )
        }
        fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
            let (old_load, bins) = self.0.update_load(tenant, new_load)?;
            Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
        }
        fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
            self.0.move_replica(tenant, from, to)
        }
        fn clone_box(&self) -> Box<dyn Consolidator> {
            Box::new(self.clone())
        }
        fn placement(&self) -> &Placement {
            &self.0
        }
        fn name(&self) -> &'static str {
            "fresh-bins"
        }
    }

    #[test]
    fn audited_wrapper_is_transparent() {
        let mut audited = AuditedConsolidator::new(Box::new(FreshBins(Placement::new(2))));
        for id in 0..5u64 {
            let outcome = audited.place(tenant(id, 0.4)).unwrap();
            assert_eq!(outcome.bins.len(), 2);
        }
        assert_eq!(audited.audits(), 5);
        assert_eq!(audited.gamma(), 2);
        assert_eq!(audited.placement().tenant_count(), 5);
    }

    #[test]
    fn audited_wrapper_replays_removal_and_recovery() {
        let mut audited = AuditedConsolidator::new(Box::new(FreshBins(Placement::new(2))));
        let a = audited.place(tenant(0, 0.5)).unwrap();
        let b = audited.place(tenant(1, 0.7)).unwrap();
        audited.place(tenant(2, 0.3)).unwrap();
        let removed = audited.remove(TenantId::new(2)).unwrap();
        assert!((removed.load - 0.3).abs() < 1e-12);
        assert!(audited.remove(TenantId::new(2)).is_err());
        let report = audited.recover(&[a.bins[0], b.bins[1]]).unwrap();
        assert_eq!(report.replicas_migrated, 2);
        assert_eq!(audited.placement().level(a.bins[0]), 0.0);
        assert_eq!(audited.placement().level(b.bins[1]), 0.0);
        assert!(audited.placement().is_robust());
        // A fork through the audited wrapper remains independently audited.
        let mut fork = audited.clone_box();
        fork.remove(TenantId::new(0)).unwrap();
        assert_eq!(fork.placement().tenant_count(), 1);
        assert_eq!(audited.placement().tenant_count(), 2);
    }

    #[test]
    fn audited_wrapper_replays_load_updates() {
        let mut audited = AuditedConsolidator::new(Box::new(FreshBins(Placement::new(2))));
        let a = audited.place(tenant(0, 0.5)).unwrap();
        audited.place(tenant(1, 0.3)).unwrap();
        let outcome = audited.update_load(TenantId::new(0), 0.9).unwrap();
        assert!((outcome.old_load - 0.5).abs() < 1e-12);
        assert_eq!(outcome.bins, a.bins);
        assert!((audited.placement().level(a.bins[0]) - 0.45).abs() < 1e-12);
        // Downward drift audits too.
        audited.update_load(TenantId::new(0), 0.1).unwrap();
        assert!((audited.placement().level(a.bins[0]) - 0.05).abs() < 1e-12);
        // Invalid updates propagate as errors without tripping the audit.
        assert!(audited.update_load(TenantId::new(0), 0.0).is_err());
        assert!(audited.update_load(TenantId::new(9), 0.5).is_err());
        assert!(audit(audited.placement()).is_ok());
    }

    #[test]
    fn duplicate_tenant_error_propagates_unaudited() {
        let mut p = Placement::new(2);
        let bins: Vec<BinId> = (0..2).map(|_| p.open_bin(None)).collect();
        #[derive(Clone)]
        struct Fixed(Placement, Vec<BinId>);
        impl Consolidator for Fixed {
            fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
                self.0.place_tenant(&tenant, &self.1)?;
                Ok(PlacementOutcome {
                    tenant: tenant.id(),
                    bins: self.1.clone(),
                    opened: 0,
                    stage: crate::algorithm::PlacementStage::Direct,
                })
            }
            fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
                let (load, bins) = self.0.remove_tenant(tenant)?;
                Ok(RemovalOutcome { tenant, load, bins })
            }
            fn recover(&mut self, _failed: &[BinId]) -> Result<RecoveryReport> {
                Ok(RecoveryReport::default())
            }
            fn update_load(
                &mut self,
                tenant: TenantId,
                new_load: f64,
            ) -> Result<LoadUpdateOutcome> {
                let (old_load, bins) = self.0.update_load(tenant, new_load)?;
                Ok(LoadUpdateOutcome { tenant, old_load, new_load, bins })
            }
            fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
                self.0.move_replica(tenant, from, to)
            }
            fn clone_box(&self) -> Box<dyn Consolidator> {
                Box::new(self.clone())
            }
            fn placement(&self) -> &Placement {
                &self.0
            }
            fn name(&self) -> &'static str {
                "fixed"
            }
        }
        let mut audited = AuditedConsolidator::new(Box::new(Fixed(p, bins)));
        audited.place(tenant(0, 0.2)).unwrap();
        assert!(audited.place(tenant(0, 0.2)).is_err());
        assert_eq!(audited.audits(), 1);
    }
}
