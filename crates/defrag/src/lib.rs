//! # cubefit-defrag
//!
//! Robustness-preserving defragmentation for consolidated placements.
//!
//! Tenant departures strand low-fill servers: nothing in the online model
//! ever re-consolidates, so under churn the open-server count drifts above
//! what the surviving tenant set needs — the fragmentation problem studied
//! for online server renting. This crate closes that gap with a
//! **migration planner** and an **atomic plan executor**:
//!
//! * [`plan()`] takes any live [`cubefit_core::Placement`] and a
//!   [`MigrationBudget`] (max replica moves and/or max replica load moved,
//!   modeling data-copy cost) and produces a [`DefragPlan`]: an ordered
//!   list of replica migrations that drains the lowest-fill bins into the
//!   fullest feasible survivors and closes the emptied servers. Every step
//!   passes the Theorem-1 [`cubefit_core::recovery::move_feasible`]
//!   predicate in the simulated state it executes in, so applying the plan
//!   keeps every intermediate placement robust. Bins are drained
//!   whole-or-not-at-all, and the plan never opens a server, so defrag can
//!   only decrease the open-bin count.
//! * [`apply`] replays a plan through any [`cubefit_core::Consolidator`]
//!   via its `migrate` primitive (so algorithms keep their derived indexes
//!   consistent: CubeFit re-keys mature slack and seals cube growth,
//!   greedy packers re-key levels, RFI re-keys slack). Each step is
//!   re-checked against the live placement first; the first infeasible
//!   step aborts the whole plan atomically by rolling back the applied
//!   prefix with inverse migrations.
//! * [`plan_economic`] / [`apply_economic`] add the **cost objective**
//!   ([`DefragObjective::Cost`]): with a `cubefit_economics::LeaseLedger`
//!   tracking per-server rental blocks, a drain is taken only when the
//!   rent it saves over the planning horizon beats its streaming cost,
//!   and the executor settles predicted-vs-realized savings against the
//!   live ledger.
//!
//! ```
//! use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Load, Tenant, TenantId};
//! use cubefit_defrag::{apply, plan, MigrationBudget};
//! use cubefit_telemetry::Recorder;
//!
//! # fn main() -> Result<(), cubefit_core::Error> {
//! let config = CubeFitConfig::builder().replication(2).classes(5).build()?;
//! let mut cubefit = CubeFit::new(config);
//! for id in 0..30u64 {
//!     cubefit.place(Tenant::new(TenantId::new(id), Load::new(0.12)?))?;
//! }
//! for id in 0..30u64 {
//!     if id % 3 != 0 {
//!         cubefit.remove(TenantId::new(id))?; // fragment the placement
//!     }
//! }
//! let defrag = plan(cubefit.placement(), MigrationBudget::moves(16));
//! let outcome = apply(&mut cubefit, &defrag, &Recorder::disabled())?;
//! assert!(!outcome.aborted);
//! assert!(cubefit.placement().is_robust());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod budget;
pub mod economic;
pub mod execute;
pub mod mitigate;
pub mod plan;

pub use budget::MigrationBudget;
pub use cubefit_core::EPSILON;
pub use economic::{
    apply_economic, drain_score, plan_economic, DefragObjective, DrainScore, EconomicForecast,
    EconomicOutcome,
};
pub use execute::{apply, DefragOutcome};
pub use mitigate::{
    apply_mitigation, plan_mitigation, plan_mitigation_with, MitigationOutcome, MitigationPlan,
    ResidualRisk,
};
pub use plan::{plan, DefragPlan, DefragStep, PlannedClose};
