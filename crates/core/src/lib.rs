//! # cubefit-core
//!
//! Robust online multi-tenant server consolidation, reproducing the
//! **CubeFit** algorithm from *"Robust Multi-Tenant Server Consolidation in
//! the Cloud for Data Analytics Workloads"* (Mate, Daudjee, Kamali —
//! ICDCS 2017).
//!
//! Tenants arrive online, each with a normalized load in `(0, 1]`. Every
//! tenant is replicated `γ` times (each replica carrying `load/γ`) onto `γ`
//! distinct unit-capacity servers so that the simultaneous failure of any
//! `γ − 1` servers never overloads a surviving server. The consolidation
//! objective is to open as few servers as possible.
//!
//! This crate provides:
//!
//! * the placement substrate shared by every algorithm in the workspace —
//!   [`Tenant`]s, [`Load`]s, bins ([`BinId`], [`BinSnapshot`]), the
//!   [`Placement`] state with incremental shared-load bookkeeping, and
//!   Theorem 1 in one place, [`validity`]: the fit test, the tuple test and
//!   the margin that CubeFit, the baselines, recovery, the monitor and
//!   mitigation all decide robustness with, plus the whole-placement
//!   checker;
//! * the [`CubeFit`] consolidator itself: size classes, mature-bin *m-fit*
//!   placement (stage 1), cube-addressed slot placement (stage 2), and
//!   multi-replica aggregation for tiny tenants;
//! * the [`Consolidator`] trait, which the baselines' one engine (see
//!   `cubefit-baselines`) implements too, so that experiment harnesses can
//!   drive any algorithm uniformly;
//! * what the algorithms share beneath the trait: the keyed
//!   [`bin_index::BinIndex`] behind every ordered bin scan (CubeFit's
//!   mature set by slack, the baselines' level and slack orders) and the
//!   [`recovery`] driver every algorithm re-homes orphaned replicas
//!   through;
//! * the differential audit [`oracle`]: a from-scratch reference
//!   recomputation of levels, shared loads and failover reserves, plus
//!   [`AuditedConsolidator`], which cross-checks any algorithm's
//!   incremental bookkeeping after every placement.
//!
//! ## Quickstart
//!
//! ```
//! use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Load, Tenant};
//!
//! # fn main() -> Result<(), cubefit_core::Error> {
//! // Two replicas per tenant, five size classes.
//! let config = CubeFitConfig::builder().replication(2).classes(5).build()?;
//! let mut cubefit = CubeFit::new(config);
//!
//! for load in [0.6, 0.3, 0.6, 0.78, 0.12, 0.36] {
//!     cubefit.place(Tenant::with_load(Load::new(load)?))?;
//! }
//!
//! // The resulting placement survives any single server failure.
//! assert!(cubefit.placement().is_robust());
//! println!("servers used: {}", cubefit.placement().open_bins());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod algorithm;
pub mod atomic_io;
pub mod bin;
pub mod bin_index;
pub mod class;
pub mod config;
pub mod cube;
pub mod cubefit;
pub mod dump;
pub mod error;
pub mod load;
pub mod mfit;
pub mod monitor;
pub mod multireplica;
pub mod oracle;
pub mod placement;
pub mod recovery;
pub mod render;
pub mod shared;
pub mod smallbuf;
pub mod tenant;
pub mod validity;

pub use algorithm::{
    Consolidator, LoadUpdateOutcome, PlacementOutcome, PlacementStage, RemovalOutcome,
};
pub use atomic_io::write_atomic;
pub use bin::{BinClass, BinId, BinSnapshot};
pub use class::{Classifier, ReplicaClass};
pub use config::{CubeFitConfig, CubeFitConfigBuilder, Stage1Eligibility, TinyPolicy};
pub use cubefit::CubeFit;
pub use dump::{DumpEntry, PlacementDump};
pub use error::{Error, Result};
pub use load::Load;
pub use monitor::{MonitorReport, ServerHealth, ServerState};
pub use oracle::{AuditedConsolidator, Divergence, DivergenceKind, Oracle};
pub use placement::{FragmentationStats, MoveUndo, Placement, PlacementStats};
pub use recovery::RecoveryReport;
pub use tenant::{Tenant, TenantId};
pub use validity::{FailureImpact, RobustnessReport};

/// Tolerance used for floating-point capacity comparisons throughout the
/// workspace.
///
/// All capacity checks are of the form `total ≤ 1 + EPSILON` so that sums
/// that are exactly at capacity (e.g. the worked examples of the paper) are
/// not rejected due to rounding.
pub const EPSILON: f64 = 1e-9;
