//! The reserve mode and telemetry plumbing shared by the baseline packers.

use cubefit_core::{BinId, Placement, Tenant, TenantId};
use cubefit_telemetry::{Counter, Recorder, TraceEvent};

/// Telemetry handles shared by the baseline packers, resolved once when a
/// recorder is attached so the hot path pays one branch when disabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct BaselineTelemetry {
    pub recorder: Recorder,
    pub placements: Counter,
    pub bins_opened: Counter,
    pub fallbacks: Counter,
}

impl BaselineTelemetry {
    pub fn resolve(recorder: Recorder, algorithm: &str, gamma: usize) -> Self {
        let gamma = gamma.to_string();
        let labels = [("algorithm", algorithm), ("gamma", gamma.as_str())];
        BaselineTelemetry {
            placements: recorder.counter("placements", &labels),
            bins_opened: recorder.counter("bins_opened", &labels),
            fallbacks: recorder.counter("fallbacks", &labels),
            recorder,
        }
    }

    /// Emits the arrival event for `tenant` before placement begins.
    pub fn arrival(&self, tenant: &Tenant, seq: usize) {
        self.recorder.emit(|| TraceEvent::TenantArrived {
            tenant: tenant.id().get(),
            load: tenant.load().get(),
            seq: seq as u64,
        });
    }

    /// The subset of `bins` still empty — i.e. about to receive their
    /// first replica. Call before `place_tenant`, pass to [`Self::opened`]
    /// afterwards so the trace's `BinOpened` count matches the servers a
    /// run reports.
    pub fn pending_opens(&self, placement: &Placement, bins: &[BinId]) -> Vec<BinId> {
        if !self.recorder.is_enabled() {
            return Vec::new();
        }
        bins.iter().copied().filter(|&b| placement.bin(b).is_empty()).collect()
    }

    /// Emits one `BinOpened` per newly non-empty bin.
    pub fn opened(&self, placement: &Placement, pending: &[BinId]) {
        if pending.is_empty() {
            return;
        }
        self.bins_opened.add(pending.len() as u64);
        let total = placement.open_bins();
        let n = pending.len();
        for (i, &bin) in pending.iter().enumerate() {
            self.recorder.emit(|| TraceEvent::BinOpened {
                bin: bin.index(),
                class: None,
                total_open: total - (n - 1 - i),
            });
        }
    }

    /// Emits the terminal `Placed` event and bumps the placements counter.
    pub fn placed(&self, tenant: &Tenant, bins: &[BinId], opened: usize) {
        self.placements.inc();
        self.recorder.emit(|| TraceEvent::Placed {
            tenant: tenant.id().get(),
            bins: bins.iter().map(|b| b.index()).collect(),
            stage: "Direct".to_owned(),
            opened,
        });
    }

    /// Emits `ReplicaMigrated` for one replica of `load` moved off `from`.
    pub fn migrated(&self, tenant: TenantId, from: BinId, to: BinId, load: f64) {
        self.recorder.emit(|| TraceEvent::ReplicaMigrated {
            tenant: tenant.get(),
            from: from.index(),
            to: to.index(),
            load,
        });
    }
}

/// How much failover capacity a packer reserves on each server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReserveMode {
    /// Reserve for the worst *single* server failure (RFI's guarantee).
    SingleFailure,
    /// Reserve for the worst `γ − 1` simultaneous failures (the robustness
    /// level CubeFit provides).
    #[default]
    GammaMinusOne,
}

impl ReserveMode {
    /// Number of simultaneous failures the reserve covers for replication
    /// factor `gamma`.
    #[must_use]
    pub fn failures_covered(self, gamma: usize) -> usize {
        match self {
            ReserveMode::SingleFailure => 1,
            ReserveMode::GammaMinusOne => gamma - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_mode_failure_counts() {
        assert_eq!(ReserveMode::SingleFailure.failures_covered(3), 1);
        assert_eq!(ReserveMode::GammaMinusOne.failures_covered(3), 2);
        assert_eq!(ReserveMode::GammaMinusOne.failures_covered(2), 1);
    }
}
