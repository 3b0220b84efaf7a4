//! [`Timed`]: a [`Consolidator`] decorator that records one span per call.
//!
//! Every method is forwarded explicitly — the `*_batch` methods and
//! `set_shards` included — so a decorated stack takes exactly the code
//! path of the undecorated one; only the spans are added.

use crate::trace;
use cubefit_core::{
    BinId, Consolidator, LoadUpdateOutcome, Placement, PlacementOutcome, RecoveryReport,
    RemovalOutcome, Result, Tenant, TenantId,
};
use cubefit_telemetry::Recorder;

/// Span names for one layer's mutation calls.
#[derive(Debug)]
pub struct OpNames {
    place: &'static str,
    remove: &'static str,
    recover: &'static str,
    update_load: &'static str,
    place_batch: &'static str,
    remove_batch: &'static str,
    update_load_batch: &'static str,
    migrate: &'static str,
}

/// Calls into the algorithm itself (decision + placement index).
pub const CORE: OpNames = OpNames {
    place: "core.place",
    remove: "core.remove",
    recover: "core.recover",
    update_load: "core.update_load",
    place_batch: "core.place_batch",
    remove_batch: "core.remove_batch",
    update_load_batch: "core.update_load_batch",
    migrate: "core.migrate",
};

/// Calls into the journaling wrapper; their self time is the journal's
/// cost (record encoding, append, fsync per policy).
pub const DURABILITY: OpNames = OpNames {
    place: "durability.place",
    remove: "durability.remove",
    recover: "durability.recover_op",
    update_load: "durability.update_load",
    place_batch: "durability.place_batch",
    remove_batch: "durability.remove_batch",
    update_load_batch: "durability.update_load_batch",
    migrate: "durability.migrate",
};

/// Span names of [`DURABILITY`] mutation calls, whose self time is the
/// journal append.
pub const DURABILITY_MUTATIONS: [&str; 8] = [
    DURABILITY.place,
    DURABILITY.remove,
    DURABILITY.recover,
    DURABILITY.update_load,
    DURABILITY.place_batch,
    DURABILITY.remove_batch,
    DURABILITY.update_load_batch,
    DURABILITY.migrate,
];

/// Records a span around every call into `inner`.
pub struct Timed {
    inner: Box<dyn Consolidator>,
    names: &'static OpNames,
}

impl Timed {
    /// Decorates `inner`, naming its spans from `names`.
    #[must_use]
    pub fn new(inner: Box<dyn Consolidator>, names: &'static OpNames) -> Self {
        Timed { inner, names }
    }
}

impl Consolidator for Timed {
    fn place(&mut self, tenant: Tenant) -> Result<PlacementOutcome> {
        let guard = trace::enter(self.names.place);
        let out = self.inner.place(tenant);
        guard.exit(1);
        out
    }

    fn remove(&mut self, tenant: TenantId) -> Result<RemovalOutcome> {
        let guard = trace::enter(self.names.remove);
        let out = self.inner.remove(tenant);
        guard.exit(1);
        out
    }

    fn recover(&mut self, failed: &[BinId]) -> Result<RecoveryReport> {
        let guard = trace::enter(self.names.recover);
        let out = self.inner.recover(failed);
        guard.exit(out.as_ref().map_or(0, |r| r.replicas_migrated as u64));
        out
    }

    fn update_load(&mut self, tenant: TenantId, new_load: f64) -> Result<LoadUpdateOutcome> {
        let guard = trace::enter(self.names.update_load);
        let out = self.inner.update_load(tenant, new_load);
        guard.exit(1);
        out
    }

    fn place_batch(&mut self, tenants: Vec<Tenant>) -> Result<Vec<PlacementOutcome>> {
        let work = tenants.len() as u64;
        let guard = trace::enter(self.names.place_batch);
        let out = self.inner.place_batch(tenants);
        guard.exit(work);
        out
    }

    fn remove_batch(&mut self, tenants: &[TenantId]) -> Result<Vec<RemovalOutcome>> {
        let guard = trace::enter(self.names.remove_batch);
        let out = self.inner.remove_batch(tenants);
        guard.exit(tenants.len() as u64);
        out
    }

    fn update_load_batch(&mut self, updates: &[(TenantId, f64)]) -> Result<Vec<LoadUpdateOutcome>> {
        let guard = trace::enter(self.names.update_load_batch);
        let out = self.inner.update_load_batch(updates);
        guard.exit(updates.len() as u64);
        out
    }

    fn set_shards(&mut self, shards: usize) {
        self.inner.set_shards(shards);
    }

    fn migrate(&mut self, tenant: TenantId, from: BinId, to: BinId) -> Result<()> {
        let guard = trace::enter(self.names.migrate);
        let out = self.inner.migrate(tenant, from, to);
        guard.exit(1);
        out
    }

    fn clone_box(&self) -> Box<dyn Consolidator> {
        Box::new(Timed { inner: self.inner.clone_box(), names: self.names })
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
