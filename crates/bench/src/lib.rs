//! # cubefit-bench
//!
//! Benchmark harness reproducing every table and figure of the CubeFit
//! paper's evaluation (§V), plus Criterion micro-benchmarks and ablation
//! studies.
//!
//! Experiment binaries (run with `cargo run --release -p cubefit-bench
//! --bin <name>`; add `-- --quick` for a scaled-down smoke run):
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `fig5`     | Fig. 5 — p99 latency under worst-case 1- and 2-server failures |
//! | `fig6`     | Fig. 6 — % server savings of CubeFit over RFI with 95% CIs |
//! | `table1`   | Table I — yearly cost savings |
//! | `theorem2` | Theorem 2 — competitive-ratio upper bounds |
//! | `ablation` | design-choice ablations: K, μ, tiny policy, stage-1 rules |
//! | `scaling`  | §V.C scaling prose, plus the batched 1M-tenant throughput sweep |
//! | `soak`     | soak throughput, streaming-analyzer rate and shrink cost |
//! | `journal`  | soak throughput with and without the journal, per fsync policy |
//! | `serve`    | the service loop under calm and 4× storm load |
//! | `drift`    | residual drift risk vs. mitigation budget |
//! | `defrag`   | defragmentation yield vs. migration budget |
//! | `rent`     | renting economics across lease block durations |
//! | `trend`    | CI gate comparing fresh `BENCH_*.json` records against baselines |
//!
//! Each experiment binary prints a plain-text table mirroring the paper
//! artefact and writes machine-readable JSON next to it under `results/`.
//! These are experiment reproductions and CI smoke gates; end-to-end
//! performance claims are measured with the `perfbench` harness at the
//! repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use cubefit_sim::{AlgorithmSpec, ComparisonConfig, DistributionSpec};
use cubefit_telemetry::Recorder;
use std::path::PathBuf;

pub mod trend;

/// Run-mode for experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The paper's full protocol.
    Paper,
    /// A scaled-down smoke run (minutes → seconds).
    Quick,
}

impl Mode {
    /// Parses the mode from process arguments (`--quick` selects
    /// [`Mode::Quick`]).
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Mode::Quick
        } else {
            Mode::Paper
        }
    }

    /// Whether this is the scaled-down mode.
    #[must_use]
    pub fn is_quick(self) -> bool {
        self == Mode::Quick
    }
}

/// Location for machine-readable experiment outputs: `results/` under the
/// workspace root (created on demand), or the current directory as a
/// fallback.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("CUBEFIT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    if std::fs::create_dir_all(&dir).is_err() {
        return PathBuf::from(".");
    }
    dir
}

/// Writes a JSON value to `results/<name>.json`, reporting the path on
/// stdout; failures are reported but not fatal (experiments still print
/// their tables).
pub fn write_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    match cubefit_core::write_atomic(
        &path,
        serde_json::to_string_pretty(value).expect("serializable"),
    ) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Runs one instrumented placement pass and writes `BENCH_<name>.json`:
/// wall-clock seconds, tenants/second, and the full decision-counter
/// snapshot. Experiment binaries call this after their main artefact so
/// every figure run leaves a machine-readable telemetry record behind.
pub fn write_bench_metrics(
    name: &str,
    spec: &AlgorithmSpec,
    distribution: &DistributionSpec,
    tenants: usize,
    seed: u64,
) {
    let config = ComparisonConfig { tenants, runs: 1, base_seed: seed, max_clients: 52 };
    let sequence = cubefit_sim::experiment::sequence_for(distribution, &config, 0);
    let recorder = Recorder::enabled();
    match cubefit_sim::run_sequence_with(spec, &sequence, &recorder) {
        Ok(result) => {
            let value = serde_json::json!({
                "algorithm": result.algorithm,
                "distribution": distribution.label(),
                "tenants": result.tenants,
                "servers": result.servers,
                "utilization": result.utilization,
                "robust": result.robust,
                "wall_seconds": result.wall.as_secs_f64(),
                "tenants_per_second": result.tenants_per_second(),
                "metrics": serde_json::to_value(&result.metrics).expect("serializable"),
            });
            write_json(&format!("BENCH_{name}"), &value);
        }
        Err(e) => eprintln!("instrumented bench run for {name} failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_detection_defaults_to_paper() {
        // The test harness passes no --quick flag.
        assert_eq!(Mode::from_args(), Mode::Paper);
        assert!(!Mode::Paper.is_quick());
        assert!(Mode::Quick.is_quick());
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.exists() || dir.as_os_str() == ".");
    }
}
