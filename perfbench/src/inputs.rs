//! Seeded input generation shared by the workloads.
//!
//! Loads follow the normalized model of the paper's §V.C simulations
//! (`load = clients / 52`). Everything here is a pure function of the
//! seed and of the state the generated ops have produced, so two
//! repetitions with one seed drive identical op streams.

use cubefit_core::{BinId, Consolidator, CubeFit, CubeFitConfig, Placement, Tenant, TenantId};
use cubefit_workload::{
    ClientDistribution, LoadModel, SequenceBuilder, UniformClients, ZipfClients,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Clients that saturate one server.
pub const MAX_CLIENTS: u32 = 52;

/// Builds CubeFit with `gamma` replicas and the paper's K = 10 classes.
///
/// # Panics
///
/// Panics for γ < 2, which no workload uses.
#[must_use]
pub fn cubefit(gamma: usize) -> Box<dyn Consolidator> {
    let config = CubeFitConfig::builder()
        .replication(gamma)
        .classes(10)
        .build()
        .expect("valid CubeFit configuration");
    Box::new(CubeFit::new(config))
}

/// The clients → load model.
#[must_use]
pub fn model() -> LoadModel {
    LoadModel::normalized(MAX_CLIENTS)
}

/// `count` tenants with ids from 0 and client counts drawn from `clients`.
#[must_use]
pub fn tenants(clients: impl ClientDistribution, count: usize, seed: u64) -> Vec<Tenant> {
    SequenceBuilder::new(clients, model()).count(count).seed(seed).build().tenants().collect()
}

/// Clients uniform in 1..=15, the paper's first cluster experiment.
#[must_use]
pub fn uniform() -> UniformClients {
    UniformClients::new(1, 15)
}

/// Zipf(1.0) clients over 1..=52: mostly small tenants, a few that
/// fill most of a server.
#[must_use]
pub fn zipf() -> ZipfClients {
    ZipfClients::new(1.0, MAX_CLIENTS)
}

/// Tenants per `place_batch` call when filling a fleet.
pub const FILL_CHUNK: usize = 4096;

/// Splits `tenants` into `place_batch` calls of [`FILL_CHUNK`].
#[must_use]
pub fn chunked(tenants: &[Tenant]) -> Vec<Vec<Tenant>> {
    tenants.chunks(FILL_CHUNK).map(<[Tenant]>::to_vec).collect()
}

/// Places `tenants` through `place_batch` in chunks of [`FILL_CHUNK`].
///
/// # Errors
///
/// The first placement error.
pub fn fill(consolidator: &mut dyn Consolidator, tenants: &[Tenant]) -> cubefit_core::Result<()> {
    for chunk in chunked(tenants) {
        consolidator.place_batch(chunk)?;
    }
    Ok(())
}

/// New load for a re-estimated tenant: a downward drift to 50–100% of
/// `old`. Re-estimates never raise a load, so every workload's placement
/// stays Theorem-1 robust and `is_robust` is a valid check after any op.
#[must_use]
pub fn drifted(old: f64, rng: &mut ChaCha8Rng) -> f64 {
    old * (0.5 + 0.5 * rng.gen::<f64>())
}

/// One lifecycle mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A tenant arrives.
    Place(Tenant),
    /// A tenant departs.
    Remove(TenantId),
    /// A tenant's load is re-estimated.
    UpdateLoad(TenantId, f64),
    /// A server fails and its replicas are re-homed.
    Fail(BinId),
}

impl Op {
    /// Applies the op through the consolidator stack.
    ///
    /// # Errors
    ///
    /// The consolidator's error.
    pub fn apply(self, consolidator: &mut dyn Consolidator) -> cubefit_core::Result<()> {
        match self {
            Op::Place(tenant) => consolidator.place(tenant).map(drop),
            Op::Remove(tenant) => consolidator.remove(tenant).map(drop),
            Op::UpdateLoad(tenant, load) => consolidator.update_load(tenant, load).map(drop),
            Op::Fail(bin) => consolidator.recover(&[bin]).map(drop),
        }
    }
}

/// The steady-state churn mix: 45% arrivals, 45% departures, 9.5% load
/// re-estimates and 0.5% single-server failures, per mille.
#[derive(Debug)]
pub struct ChurnMix {
    rng: ChaCha8Rng,
    clients: Box<dyn ClientDistribution>,
    model: LoadModel,
    alive: Vec<TenantId>,
    next_id: u64,
}

impl ChurnMix {
    /// A mix over the tenants already `placed`, drawing arrivals' clients
    /// from `clients` and ids above every placed id.
    #[must_use]
    pub fn new(seed: u64, clients: Box<dyn ClientDistribution>, placed: &Placement) -> Self {
        let mut alive: Vec<TenantId> = placed.tenants().map(|(id, _, _)| id).collect();
        alive.sort_unstable();
        let next_id = alive.last().map_or(0, |id| id.get() + 1);
        ChurnMix { rng: ChaCha8Rng::seed_from_u64(seed), clients, model: model(), alive, next_id }
    }

    /// Draws the next op against the current `placement`.
    pub fn next_op(&mut self, placement: &Placement) -> Op {
        let roll = self.rng.gen_range(0..1000u32);
        if self.alive.is_empty() || roll < 450 {
            let clients = self.clients.sample_clients(&mut self.rng);
            let tenant = Tenant::new(TenantId::new(self.next_id), self.model.load(clients));
            self.next_id += 1;
            self.alive.push(tenant.id());
            return Op::Place(tenant);
        }
        let index = self.rng.gen_range(0..self.alive.len());
        if roll < 900 {
            return Op::Remove(self.alive.swap_remove(index));
        }
        let tenant = self.alive[index];
        if roll < 995 {
            let old = placement.tenant_load(tenant).expect("alive tenants are placed");
            return Op::UpdateLoad(tenant, drifted(old, &mut self.rng));
        }
        let bins = placement.tenant_bins(tenant).expect("alive tenants are placed");
        Op::Fail(bins[self.rng.gen_range(0..bins.len())])
    }
}
