//! Pricing a migration's streamed load.

use crate::constants::{LOAD_TRANSFER_SECONDS, REPLICA_RESTORE_SECONDS};
use crate::cost::C4_4XLARGE_HOURLY_USD;

const SECONDS_PER_HOUR: f64 = 3_600.0;

/// Converts migration volume (replicas moved, load streamed) into
/// dollars, using the degraded-window model shared with `sim::lifecycle`:
/// each replica pays [`REPLICA_RESTORE_SECONDS`] of fixed setup and
/// streams its load at [`LOAD_TRANSFER_SECONDS`] per unit.
///
/// Streaming is an *operational* cost priced at a fixed reference rate,
/// deliberately independent of the rent rate in [`crate::LeaseTerms`]:
/// raising the rent makes keeping bins open more expensive without making
/// migrations cheaper or dearer, which is what gives the economic defrag
/// planner its monotone response to rent (and the property test that
/// pins it).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MigrationPricing {
    usd_per_replica: f64,
    usd_per_unit_load: f64,
}

impl MigrationPricing {
    /// Pricing with explicit per-replica and per-unit-load rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or non-finite.
    #[must_use]
    pub fn new(usd_per_replica: f64, usd_per_unit_load: f64) -> Self {
        assert!(usd_per_replica >= 0.0 && usd_per_replica.is_finite());
        assert!(usd_per_unit_load >= 0.0 && usd_per_unit_load.is_finite());
        MigrationPricing { usd_per_replica, usd_per_unit_load }
    }

    /// Pricing derived from the degraded-window constants at an hourly
    /// machine rate: a migration occupies source and destination for its
    /// modeled duration, so its cost is that duration at the given rate.
    #[must_use]
    pub fn at_hourly_rate(hourly_usd: f64) -> Self {
        MigrationPricing::new(
            REPLICA_RESTORE_SECONDS / SECONDS_PER_HOUR * hourly_usd,
            LOAD_TRANSFER_SECONDS / SECONDS_PER_HOUR * hourly_usd,
        )
    }

    /// The default: degraded-window pricing at the `c4.4xlarge` reference
    /// rate (see [`crate::CostModel::c4_4xlarge`]), independent of lease
    /// terms.
    #[must_use]
    pub fn reference() -> Self {
        MigrationPricing::at_hourly_rate(C4_4XLARGE_HOURLY_USD)
    }

    /// Fixed cost per replica moved.
    #[must_use]
    pub fn usd_per_replica(&self) -> f64 {
        self.usd_per_replica
    }

    /// Cost per unit of normalized load streamed.
    #[must_use]
    pub fn usd_per_unit_load(&self) -> f64 {
        self.usd_per_unit_load
    }

    /// Cost of moving `replicas` replicas carrying `moved_load` total
    /// normalized load.
    #[must_use]
    pub fn migration_usd(&self, replicas: usize, moved_load: f64) -> f64 {
        replicas as f64 * self.usd_per_replica + moved_load * self.usd_per_unit_load
    }
}

impl Default for MigrationPricing {
    fn default() -> Self {
        MigrationPricing::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_pricing_matches_degraded_window_at_c4_rate() {
        let pricing = MigrationPricing::reference();
        // 30 s at $0.822/h and 600 s at $0.822/h.
        assert!((pricing.usd_per_replica() - 30.0 / 3_600.0 * 0.822).abs() < 1e-12);
        assert!((pricing.usd_per_unit_load() - 600.0 / 3_600.0 * 0.822).abs() < 1e-12);
    }

    #[test]
    fn migration_cost_is_linear_in_volume() {
        let pricing = MigrationPricing::new(0.5, 2.0);
        assert!((pricing.migration_usd(3, 0.25) - (1.5 + 0.5)).abs() < 1e-12);
        assert_eq!(pricing.migration_usd(0, 0.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_rates() {
        let _ = MigrationPricing::new(-0.1, 1.0);
    }
}
