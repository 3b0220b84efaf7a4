//! # cubefit-baselines
//!
//! Baseline consolidation algorithms the CubeFit paper compares against,
//! plus classic online bin-packers adapted to replicated tenants and lower
//! bounds for competitive-ratio experiments.
//!
//! * [`Rfi`] — the **RFI** algorithm of Schaffner et al. (RTP, SIGMOD'13)
//!   as described in §V of the CubeFit paper: Best Fit with a
//!   *single-failure* failover reserve and an interleaving cap `μ`
//!   (recommended 0.85). RFI cannot protect against more than one
//!   simultaneous server failure — the property Fig. 5 demonstrates.
//! * [`BestFit`] / [`FirstFit`] / [`WorstFit`] — greedy packers made
//!   failover-aware with the full `γ − 1`-failure reserve, so they produce
//!   robust placements and compare fairly with CubeFit on servers used.
//! * [`NextFit`] — bounded-lookback packer (keeps only the current `γ`
//!   bins open).
//! * [`RandomFit`] — random feasible placement, a sanity-check floor.
//! * [`offline`] — Best Fit Decreasing, a near-optimal offline comparator.
//! * [`bounds`] — certified lower bounds on the offline optimum.
//!
//! The six online packers are one engine: each is an alias of
//! [`Baseline`] over a small [`Rule`] (candidate order and index key,
//! reserve, RFI's `μ` cap, Next Fit's window, Random Fit's probes), and
//! [`Baseline`] implements [`cubefit_core::Consolidator`] once, so
//! harnesses drive them interchangeably. A candidate passes RFI's `μ` cap,
//! then core's Theorem 1 fit and tuple tests (`cubefit_core::validity`):
//!
//! ```
//! use cubefit_baselines::Rfi;
//! use cubefit_core::{Consolidator, Load, Tenant};
//!
//! # fn main() -> Result<(), cubefit_core::Error> {
//! let mut rfi = Rfi::new(2, 0.85)?;
//! rfi.place(Tenant::with_load(Load::new(0.4)?))?;
//! assert_eq!(rfi.placement().open_bins(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod bounds;
pub mod common;
pub mod engine;
pub mod greedy;
pub mod nextfit;
pub mod offline;
pub mod randomfit;
pub mod rfi;

pub use common::ReserveMode;
pub use cubefit_core::EPSILON;
pub use engine::{Baseline, Rule};
pub use greedy::{BestFit, FirstFit, WorstFit};
pub use nextfit::NextFit;
pub use randomfit::RandomFit;
pub use rfi::Rfi;
