//! # cubefit-durability
//!
//! Crash-safe durability for CubeFit placements: a write-ahead journal,
//! periodic checkpoints, and deterministic recovery.
//!
//! The layer sits between a harness and any [`cubefit_core::Consolidator`]:
//!
//! * [`Journal`] — an append-only log of mutation records as
//!   length-prefixed, CRC-checksummed frames, with a tunable
//!   [`FsyncPolicy`] and a clean-shutdown seal;
//! * [`JournaledConsolidator`] — a transparent wrapper that journals
//!   every successful mutation (place/remove/update-load/migrate/recover)
//!   *after* it applied and *before* the caller is acknowledged; a batch
//!   call becomes one atomic frame holding the ordinary records of the ops
//!   that applied, so a batch that fails partway journals its prefix;
//! * [`Journal::checkpoint`] — snapshots the placement as a
//!   CRC-checksummed [`cubefit_core::PlacementDump`] (atomic temp-file +
//!   rename) and truncates the log, bounding replay work;
//! * [`recover`] / [`recover_up_to`] — load the latest valid checkpoint
//!   and replay the journal tail, tolerating a torn final frame (the
//!   expected signature of a crash mid-append: truncated with a warning,
//!   never a panic) while refusing mid-log corruption with a typed
//!   [`DurabilityError::CorruptFrame`] naming the byte offset.
//!
//! The recovery invariant, exercised by the crash-injection harness in
//! `cubefit-sim` and the differential proptests in `crates/audit`: for a
//! crash at *any* byte of the log, the recovered placement is
//! bit-identical (as a serialized dump) to the state whose last mutation
//! was durably acknowledged, and passes the differential audit oracle.
//!
//! ## Quickstart
//!
//! ```
//! use cubefit_durability::{recover, FsyncPolicy, Journal, JournaledConsolidator};
//! use cubefit_core::{Consolidator, CubeFit, CubeFitConfig, Load, Tenant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join("cubefit-durability-doc");
//! # let _ = std::fs::remove_dir_all(&dir);
//! let journal = Journal::create(&dir, 2, FsyncPolicy::Interval(64))?;
//! let config = CubeFitConfig::builder().replication(2).classes(5).build()?;
//! let mut consolidator =
//!     JournaledConsolidator::new(Box::new(CubeFit::new(config)), journal.clone());
//!
//! for load in [0.6, 0.3, 0.78, 0.12] {
//!     consolidator.place(Tenant::with_load(Load::new(load)?))?;
//! }
//! journal.checkpoint(consolidator.placement())?;
//! consolidator.place(Tenant::with_load(Load::new(0.5)?))?;
//! // ... crash here: no seal, maybe even a torn final frame ...
//!
//! let recovered = recover(&dir)?;
//! assert_eq!(
//!     serde_json::to_string(&recovered.dump())?,
//!     serde_json::to_string(&cubefit_core::PlacementDump::from_placement(
//!         consolidator.placement()
//!     ))?,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod error;
pub mod frame;
pub mod journal;
pub mod record;
pub mod recover;
pub mod wrapper;

pub use error::{DurabilityError, Result};
pub use journal::{CheckpointInfo, FsyncPolicy, Journal, CHECKPOINT_FILE, WAL_FILE};
pub use record::{JournalRecord, RecoveryMove};
pub use recover::{recover, recover_up_to, RecoveredState};
pub use wrapper::JournaledConsolidator;
