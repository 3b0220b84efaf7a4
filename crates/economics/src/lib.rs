//! Server-renting economics for consolidation planners.
//!
//! The paper's Table I prices servers as if every open bin runs
//! continuously for a year, which makes keeping a nearly-empty bin open
//! *free* in every planner built on it. Real clusters rent machines in
//! duration blocks and pay rent per started block — the setting of
//! Kamali & López-Ortiz, "Efficient Online Strategies for Renting
//! Servers in the Cloud". This crate supplies the economic substrate the
//! rest of the workspace plans against:
//!
//! - [`CostModel`] — the EC2 `c4.4xlarge` cost model (moved here from
//!   `cubefit-sim`, which re-exports it), extended with the signed
//!   [`CostModel::yearly_delta`].
//! - [`LeaseTerms`] / [`LeaseLedger`] — per-server rental blocks of a
//!   configurable duration; rent accrues as simulated time advances, and
//!   the ledger answers the marginal-cost query a planner needs: *what
//!   does keeping this bin open until horizon H cost?*
//! - [`MigrationPricing`] — prices a migration's streamed load using the
//!   degraded-window constants ([`REPLICA_RESTORE_SECONDS`],
//!   [`LOAD_TRANSFER_SECONDS`]) shared with `sim::lifecycle`.
//! - [`CostReport`] — the realized-cost summary attached to churn/soak
//!   reports: rent, migration spend, and the integrals the renting
//!   competitive-ratio probe in `cubefit-analysis` needs to compute a
//!   clairvoyant lower bound.
//! - [`RentConfig`] — how a simulation maps ops onto wall-clock time and
//!   which lease terms / migration prices apply.
//!
//! Everything here is deterministic: ledgers are pure functions of the
//! `advance` calls they observe, so seeded simulations produce
//! bit-identical cost reports.

mod constants;
mod cost;
mod lease;
mod pricing;
mod rent;
mod report;

pub use constants::{LOAD_TRANSFER_SECONDS, REPLICA_RESTORE_SECONDS};
pub use cost::{CostModel, C4_4XLARGE_HOURLY_USD, HOURS_PER_YEAR};
pub use lease::{LeaseLedger, LeaseTerms, MS_PER_HOUR};
pub use pricing::MigrationPricing;
pub use rent::RentConfig;
pub use report::CostReport;
