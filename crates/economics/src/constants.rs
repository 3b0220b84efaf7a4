//! Degraded-window migration-cost constants.
//!
//! `sim::lifecycle` sizes its degraded recovery window with these, and
//! the economics crate prices a migration's streamed load from the same
//! model, so this is their single home.

/// Modeled seconds of fixed per-replica restore work (catalog updates,
/// opening the replication stream, warming the page cache).
pub const REPLICA_RESTORE_SECONDS: f64 = 30.0;

/// Modeled seconds to stream one full server's worth of normalized load
/// (load 1.0) to its new home; a replica of load `ℓ` streams in `ℓ ×` this.
pub const LOAD_TRANSFER_SECONDS: f64 = 600.0;

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the shared degraded-window constants. The lifecycle driver's
    /// degraded-window model, the migration pricing defaults, and every
    /// recorded benchmark baseline assume exactly these values; changing
    /// them silently would skew cost comparisons across PRs.
    #[test]
    fn degraded_window_constants_are_pinned() {
        assert_eq!(REPLICA_RESTORE_SECONDS, 30.0);
        assert_eq!(LOAD_TRANSFER_SECONDS, 600.0);
    }
}
