//! [`JournaledConsolidator`]: a transparent [`Consolidator`] wrapper that
//! journals every successful mutation before returning it to the caller.
//!
//! Write ordering is journal-**after**-apply, journal-**before**-ack: a
//! mutation that errors is never journaled (the algorithm's fail-fast
//! contract means it left no trace to record), a batch journals the ops
//! that applied before its failing one, and a mutation whose journal
//! append fails is reported as a durability error even though it applied
//! in memory — the caller must not act on unjournaled state.

use crate::error::DurabilityError;
use crate::journal::Journal;
use crate::record::{JournalRecord, RecoveryMove};
use cubefit_core::{
    BinId, Consolidator, LoadUpdateOutcome, Placement, PlacementOutcome, RecoveryReport,
    RemovalOutcome, Result, Tenant, TenantId,
};
use cubefit_telemetry::Recorder;

/// Wraps any consolidator so each acknowledged mutation is durable.
pub struct JournaledConsolidator {
    inner: Box<dyn Consolidator>,
    journal: Journal,
}

impl std::fmt::Debug for JournaledConsolidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournaledConsolidator")
            .field("algorithm", &self.inner.name())
            .field("journal_dir", &self.journal.dir())
            .finish()
    }
}

/// A mutation's outcome on the inner algorithm, with the record that
/// replays it.
type Applied<O> = Result<(O, JournalRecord)>;

fn place_op(inner: &mut dyn Consolidator, tenant: Tenant) -> Applied<PlacementOutcome> {
    let load = tenant.load().get();
    let outcome = inner.place(tenant)?;
    let record = JournalRecord::Place {
        tenant: outcome.tenant.get(),
        load,
        servers: outcome.bins.iter().map(|b| b.index()).collect(),
        servers_after: inner.placement().created_bins(),
    };
    Ok((outcome, record))
}

fn remove_op(inner: &mut dyn Consolidator, tenant: TenantId) -> Applied<RemovalOutcome> {
    let outcome = inner.remove(tenant)?;
    let record = JournalRecord::Remove { tenant: outcome.tenant.get() };
    Ok((outcome, record))
}

fn update_load_op(
    inner: &mut dyn Consolidator,
    (tenant, new_load): (TenantId, f64),
) -> Applied<LoadUpdateOutcome> {
    let outcome = inner.update_load(tenant, new_load)?;
    let record = JournalRecord::UpdateLoad { tenant: outcome.tenant.get(), load: outcome.new_load };
    Ok((outcome, record))
}

impl JournaledConsolidator {
    /// Wraps `inner` so every mutation appends to `journal` before the
    /// outcome is returned.
    #[must_use]
    pub fn new(inner: Box<dyn Consolidator>, journal: Journal) -> Self {
        JournaledConsolidator { inner, journal }
    }

    /// The shared journal handle (for checkpointing or sealing from the
    /// harness).
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Runs `op` over `items` in order, stopping at the first error, and
    /// journals the ops that applied as one `Batch` frame: the whole
    /// batch, or the prefix before a failing op, and nothing when none
    /// applied. A failed append wins over the op's error — the applied
    /// prefix is then not durable and must not be acknowledged.
    fn journal_batch<I, O>(
        &mut self,
        items: impl ExactSizeIterator<Item = I>,
        op: fn(&mut dyn Consolidator, I) -> Applied<O>,
    ) -> Result<Vec<O>> {
        let mut outcomes = Vec::with_capacity(items.len());
        let mut ops = Vec::with_capacity(items.len());
        let mut failure = None;
        for item in items {
            match op(&mut *self.inner, item) {
                Ok((outcome, record)) => {
                    outcomes.push(outcome);
                    ops.push(record);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if !ops.is_empty() {
            self.journal.append(&JournalRecord::Batch { ops })?;
        }
        failure.map_or(Ok(outcomes), Err)
    }
}

impl Consolidator for JournaledConsolidator {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        let (outcome, record) = place_op(&mut *self.inner, tenant)?;
        self.journal.append(&record)?;
        Ok(outcome)
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let (outcome, record) = remove_op(&mut *self.inner, tenant)?;
        self.journal.append(&record)?;
        Ok(outcome)
    }

    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        // The report carries only counts; reconstruct the actual replica
        // moves by diffing each orphaned tenant's bins across the call.
        // The affected set is the failed bins' residents ordered by tenant
        // id, not `recovery::orphans`' arrival order: that id order fixes
        // the move order in the journal's Recover record.
        let placement = self.inner.placement();
        let mut affected: Vec<TenantId> = failed
            .iter()
            .filter(|bin| bin.index() < placement.created_bins())
            .flat_map(|&bin| placement.bin(bin).contents().iter().map(|&(tenant, _)| tenant))
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let before: Vec<(TenantId, Vec<BinId>)> = affected
            .iter()
            .map(|&t| (t, self.inner.placement().tenant_bins(t).unwrap_or(&[]).to_vec()))
            .collect();

        let report = self.inner.recover(failed)?;

        let moves = recovery_moves(&before, self.inner.placement())?;
        self.journal.append(&JournalRecord::Recover {
            failed: failed.iter().map(|b| b.index()).collect(),
            moves,
            servers_after: self.inner.placement().created_bins(),
        })?;
        Ok(report)
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        let (outcome, record) = update_load_op(&mut *self.inner, (tenant, new_load))?;
        self.journal.append(&record)?;
        Ok(outcome)
    }

    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        self.journal_batch(tenants.into_iter(), place_op)
    }

    fn remove_batch(&mut self, tenants: &[TenantId]) -> Result<Vec<RemovalOutcome>> {
        self.journal_batch(tenants.iter().copied(), remove_op)
    }

    fn update_load_batch(&mut self, updates: &[(TenantId, f64)]) -> Result<Vec<LoadUpdateOutcome>> {
        self.journal_batch(updates.iter().copied(), update_load_op)
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        self.inner.migrate(tenant, from, to)?;
        self.journal.append(&JournalRecord::Migrate {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
        })?;
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        // Clones back tentative probing (defrag planning, overflow
        // checks): mutations applied to the clone are hypothetical and
        // must NOT reach the journal, so the clone is the bare inner
        // algorithm.
        self.inner.clone_box()
    }

    fn placement(&self) -> &Placement {
        self.inner.placement()
    }

    fn gamma(&self) -> usize {
        self.inner.gamma()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

/// Pairs each affected tenant's vacated bins (from `before`) with the
/// bins it newly occupies in `after`. The moves are independent (distinct
/// bins), so the pairing order is free.
///
/// # Errors
///
/// A [`DurabilityError::Unsupported`] when a tenant's replica count
/// changed: no move list describes that, so the recovery cannot be
/// journaled.
fn recovery_moves(
    before: &[(TenantId, Vec<BinId>)],
    after: &Placement,
) -> std::result::Result<Vec<RecoveryMove>, DurabilityError> {
    let mut moves = Vec::new();
    for (tenant, bins_before) in before {
        let bins_after = after.tenant_bins(*tenant).unwrap_or(&[]);
        let sources: Vec<BinId> =
            bins_before.iter().copied().filter(|b| !bins_after.contains(b)).collect();
        let dests: Vec<BinId> =
            bins_after.iter().copied().filter(|b| !bins_before.contains(b)).collect();
        if sources.len() != dests.len() {
            return Err(DurabilityError::Unsupported {
                detail: format!(
                    "recovery changed tenant {tenant}'s replica count ({} → {} servers); \
                     a move list cannot journal it",
                    bins_before.len(),
                    bins_after.len()
                ),
            });
        }
        moves.extend(sources.iter().zip(&dests).map(|(from, to)| RecoveryMove {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
        }));
    }
    Ok(moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::FsyncPolicy;
    use crate::recover::recover;
    use cubefit_baselines::FirstFit;
    use cubefit_core::{Load, PlacementDump};
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cubefit-wrapper-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journaled(name: &str, gamma: usize) -> JournaledConsolidator {
        let journal = Journal::create(tmp_dir(name), gamma, FsyncPolicy::Never).unwrap();
        JournaledConsolidator::new(Box::new(FirstFit::new(gamma).unwrap()), journal)
    }

    fn dump_json(placement: &Placement) -> String {
        serde_json::to_string(&PlacementDump::from_placement(placement)).unwrap()
    }

    fn tenant(id: u64, load: f64) -> Tenant {
        Tenant::new(TenantId::new(id), Load::new(load).unwrap())
    }

    #[test]
    fn every_primitive_recovers_bit_identically() {
        let mut consolidator = journaled("primitives", 2);
        for id in 1..=6u64 {
            consolidator.place(tenant(id, 0.1 * id as f64)).unwrap();
        }
        consolidator.remove(TenantId::new(3)).unwrap();
        consolidator.update_load(TenantId::new(4), 0.77).unwrap();
        let bins = consolidator.placement().tenant_bins(TenantId::new(1)).unwrap().to_vec();
        let dest = consolidator
            .placement()
            .bins()
            .map(|b| b.id())
            .find(|b| !bins.contains(b))
            .expect("a bin not hosting tenant 1");
        consolidator.migrate(TenantId::new(1), bins[0], dest).unwrap();

        let state = recover(consolidator.journal().dir()).unwrap();
        assert_eq!(
            serde_json::to_string(&state.dump()).unwrap(),
            dump_json(consolidator.placement()),
        );
    }

    #[test]
    fn recovery_mutation_is_journaled_as_moves() {
        let mut consolidator = journaled("recover-op", 2);
        for id in 1..=8u64 {
            consolidator.place(tenant(id, 0.2)).unwrap();
        }
        let failed = vec![BinId::new(0)];
        let report = consolidator.recover(&failed).unwrap();
        assert!(report.replicas_migrated > 0, "bin 0 hosted replicas");
        let state = recover(consolidator.journal().dir()).unwrap();
        assert_eq!(
            serde_json::to_string(&state.dump()).unwrap(),
            dump_json(consolidator.placement()),
        );
    }

    #[test]
    fn batches_are_one_atomic_frame() {
        let mut consolidator = journaled("batch", 2);
        consolidator.place_batch((1..=5).map(|id| tenant(id, 0.15)).collect()).unwrap();
        consolidator
            .update_load_batch(&[(TenantId::new(1), 0.3), (TenantId::new(2), 0.25)])
            .unwrap();
        consolidator.remove_batch(&[TenantId::new(4), TenantId::new(5)]).unwrap();
        assert_eq!(consolidator.journal().last_seq(), 3, "three batches, three frames");
        let state = recover(consolidator.journal().dir()).unwrap();
        assert_eq!(
            serde_json::to_string(&state.dump()).unwrap(),
            dump_json(consolidator.placement()),
        );
    }

    #[test]
    fn failed_mutations_are_not_journaled() {
        let mut consolidator = journaled("failed", 2);
        consolidator.place(tenant(1, 0.4)).unwrap();
        let before = consolidator.journal().last_seq();
        assert!(consolidator.remove(TenantId::new(99)).is_err());
        assert!(consolidator.update_load(TenantId::new(99), 0.5).is_err());
        assert_eq!(consolidator.journal().last_seq(), before, "failures must not journal");
    }

    #[test]
    fn failed_batch_journals_the_applied_prefix() {
        let mut consolidator = journaled("failed-batch", 2);
        consolidator.place_batch(vec![tenant(1, 0.4), tenant(2, 0.3)]).unwrap();
        // Second op fails (tenant 99 unknown); fail-fast leaves the first
        // removal applied, and the frame holds just that removal.
        let err = consolidator.remove_batch(&[TenantId::new(1), TenantId::new(99)]);
        assert!(err.is_err());
        assert_eq!(consolidator.journal().last_seq(), 2);
        let state = recover(consolidator.journal().dir()).unwrap();
        assert_eq!(
            serde_json::to_string(&state.dump()).unwrap(),
            dump_json(consolidator.placement()),
            "the batch frame must capture the fail-fast prefix"
        );
        // A batch whose first op fails applied nothing and journals nothing.
        let err = consolidator.update_load_batch(&[(TenantId::new(99), 0.5)]);
        assert!(err.is_err());
        assert_eq!(consolidator.journal().last_seq(), 2, "an empty prefix appends no frame");
    }

    #[test]
    fn a_replica_count_change_cannot_be_journaled_as_moves() {
        let mut after = Placement::new(2);
        let bins = [after.open_bin(None), after.open_bin(None), after.open_bin(None)];
        after.place_tenant(&tenant(1, 0.4), &bins[1..]).unwrap();
        let moved = [(TenantId::new(1), vec![bins[0], bins[1]])];
        let moves = recovery_moves(&moved, &after).unwrap();
        assert_eq!(moves, [RecoveryMove { tenant: 1, from: 0, to: 2 }]);
        let shrunk = [(TenantId::new(1), vec![bins[0], bins[1], bins[2], BinId::new(7)])];
        let err = recovery_moves(&shrunk, &after).unwrap_err();
        assert!(matches!(err, DurabilityError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn clones_do_not_journal() {
        let mut consolidator = journaled("clones", 2);
        consolidator.place(tenant(1, 0.4)).unwrap();
        let before = consolidator.journal().last_seq();
        let mut probe = consolidator.clone_box();
        probe.place(tenant(2, 0.3)).unwrap();
        assert_eq!(
            consolidator.journal().last_seq(),
            before,
            "tentative probe mutations must not reach the journal"
        );
    }
}
