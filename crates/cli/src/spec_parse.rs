//! Parsing of algorithm and distribution spec strings.
//!
//! The CLI accepts compact spec strings:
//!
//! * algorithms — `cubefit`, `cubefit:K=5`, `rfi`, `rfi:mu=0.9`,
//!   `bestfit`, `firstfit`, `worstfit`, `nextfit`, `randomfit:seed=3`;
//! * distributions — `uniform:1-15`, `zipf:3`, `constant:8`;
//! * drift profiles — `walk`, `walk:4`, `burst`, `burst:m=20,p=0.01`.

use cubefit_sim::{AlgorithmSpec, DistributionSpec};
use cubefit_workload::DriftProfile;
use std::collections::HashMap;

/// Parses `name[:k=v[,k=v…]]` into name + options.
fn split_spec(raw: &str) -> (String, HashMap<String, String>) {
    let mut parts = raw.splitn(2, ':');
    let name = parts.next().unwrap_or_default().to_ascii_lowercase();
    let mut options = HashMap::new();
    if let Some(rest) = parts.next() {
        for pair in rest.split(',') {
            match pair.split_once('=') {
                Some((k, v)) => {
                    options.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
                }
                None => {
                    // Bare option value, e.g. "zipf:3" or "uniform:1-15".
                    options.insert(String::new(), pair.trim().to_string());
                }
            }
        }
    }
    (name, options)
}

/// Parses an algorithm spec string.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or bad options.
pub fn parse_algorithm(raw: &str, gamma: usize) -> Result<AlgorithmSpec, String> {
    let (name, options) = split_spec(raw);
    let get_usize = |key: &str, default: usize| -> Result<usize, String> {
        options.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{raw}: {key} must be an integer"))
        })
    };
    let get_f64 = |key: &str, default: f64| -> Result<f64, String> {
        options.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{raw}: {key} must be a number"))
        })
    };
    match name.as_str() {
        "cubefit" => Ok(AlgorithmSpec::CubeFit { gamma, classes: get_usize("k", 10)? }),
        "rfi" => Ok(AlgorithmSpec::Rfi { gamma, mu: get_f64("mu", 0.85)? }),
        "bestfit" => Ok(AlgorithmSpec::BestFit { gamma }),
        "firstfit" => Ok(AlgorithmSpec::FirstFit { gamma }),
        "worstfit" => Ok(AlgorithmSpec::WorstFit { gamma }),
        "nextfit" => Ok(AlgorithmSpec::NextFit { gamma }),
        "randomfit" => Ok(AlgorithmSpec::RandomFit { gamma, seed: get_usize("seed", 0)? as u64 }),
        other => Err(format!(
            "unknown algorithm '{other}' (expected cubefit, rfi, bestfit, firstfit, worstfit, nextfit, or randomfit)"
        )),
    }
}

/// Parses a distribution spec string.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or bad options.
pub fn parse_distribution(raw: &str) -> Result<DistributionSpec, String> {
    let (name, options) = split_spec(raw);
    let bare = options.get("").cloned().unwrap_or_default();
    match name.as_str() {
        "uniform" => {
            let range = if bare.is_empty() { "1-15".to_string() } else { bare };
            let (lo, hi) = range
                .split_once('-')
                .ok_or_else(|| format!("{raw}: uniform expects a range like 1-15"))?;
            let min: u32 = lo.trim().parse().map_err(|_| format!("{raw}: bad range start"))?;
            let max: u32 = hi.trim().parse().map_err(|_| format!("{raw}: bad range end"))?;
            if min == 0 || min > max {
                return Err(format!("{raw}: range must satisfy 1 ≤ min ≤ max"));
            }
            Ok(DistributionSpec::Uniform { min, max })
        }
        "zipf" => {
            let exponent: f64 = if bare.is_empty() {
                3.0
            } else {
                bare.parse().map_err(|_| format!("{raw}: zipf expects a numeric exponent"))?
            };
            if !(exponent.is_finite() && exponent >= 0.0) {
                return Err(format!("{raw}: exponent must be non-negative"));
            }
            Ok(DistributionSpec::Zipf { exponent })
        }
        "constant" => {
            let clients: u32 =
                bare.parse().map_err(|_| format!("{raw}: constant expects a client count"))?;
            if clients == 0 {
                return Err(format!("{raw}: client count must be positive"));
            }
            Ok(DistributionSpec::Constant { clients })
        }
        other => {
            Err(format!("unknown distribution '{other}' (expected uniform, zipf, or constant)"))
        }
    }
}

/// Burst size, in clients, when `burst` gives no `m`.
const BURST_MAGNITUDE: u32 = 20;
/// Per-op burst probability when `burst` gives no `p`.
const BURST_PROBABILITY: f64 = 0.01;

/// The profile a bare `burst` spec parses to.
pub const DEFAULT_BURST: DriftProfile =
    DriftProfile::Burst { magnitude: BURST_MAGNITUDE, probability: BURST_PROBABILITY };

/// Parses a drift-profile spec string: `walk[:MAX_STEP]` for a symmetric
/// client-count random walk, `burst[:m=MAGNITUDE,p=PROBABILITY]` for
/// flash-crowd bursts that decay back to baseline.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or bad options.
pub fn parse_drift_profile(raw: &str) -> Result<DriftProfile, String> {
    let (name, options) = split_spec(raw);
    let bare = options.get("").cloned().unwrap_or_default();
    match name.as_str() {
        "walk" => {
            let max_step: u32 = if bare.is_empty() {
                2
            } else {
                bare.parse().map_err(|_| format!("{raw}: walk expects an integer step size"))?
            };
            Ok(DriftProfile::RandomWalk { max_step })
        }
        "burst" => {
            let magnitude: u32 = options.get("m").map_or(Ok(BURST_MAGNITUDE), |v| {
                v.parse().map_err(|_| format!("{raw}: m must be an integer client count"))
            })?;
            let probability: f64 = options.get("p").map_or(Ok(BURST_PROBABILITY), |v| {
                v.parse().map_err(|_| format!("{raw}: p must be a number"))
            })?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!("{raw}: p must lie in [0, 1]"));
            }
            Ok(DriftProfile::Burst { magnitude, probability })
        }
        other => Err(format!("unknown drift profile '{other}' (expected walk or burst)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_specs() {
        assert_eq!(
            parse_algorithm("cubefit", 2).unwrap(),
            AlgorithmSpec::CubeFit { gamma: 2, classes: 10 }
        );
        assert_eq!(
            parse_algorithm("cubefit:k=5", 3).unwrap(),
            AlgorithmSpec::CubeFit { gamma: 3, classes: 5 }
        );
        assert_eq!(
            parse_algorithm("RFI:mu=0.9", 2).unwrap(),
            AlgorithmSpec::Rfi { gamma: 2, mu: 0.9 }
        );
        assert_eq!(
            parse_algorithm("randomfit:seed=7", 2).unwrap(),
            AlgorithmSpec::RandomFit { gamma: 2, seed: 7 }
        );
        assert!(parse_algorithm("quantumfit", 2).is_err());
        assert!(parse_algorithm("cubefit:k=lots", 2).is_err());
    }

    #[test]
    fn distribution_specs() {
        assert_eq!(
            parse_distribution("uniform:1-15").unwrap(),
            DistributionSpec::Uniform { min: 1, max: 15 }
        );
        assert_eq!(
            parse_distribution("uniform").unwrap(),
            DistributionSpec::Uniform { min: 1, max: 15 }
        );
        assert_eq!(
            parse_distribution("zipf:2.5").unwrap(),
            DistributionSpec::Zipf { exponent: 2.5 }
        );
        assert_eq!(parse_distribution("zipf").unwrap(), DistributionSpec::Zipf { exponent: 3.0 });
        assert_eq!(
            parse_distribution("constant:8").unwrap(),
            DistributionSpec::Constant { clients: 8 }
        );
        assert!(parse_distribution("uniform:15-1").is_err());
        assert!(parse_distribution("uniform:0-5").is_err());
        assert!(parse_distribution("pareto:2").is_err());
        assert!(parse_distribution("zipf:-1").is_err());
        assert!(parse_distribution("constant:0").is_err());
    }

    #[test]
    fn drift_profile_specs() {
        assert_eq!(parse_drift_profile("walk").unwrap(), DriftProfile::RandomWalk { max_step: 2 });
        assert_eq!(
            parse_drift_profile("walk:5").unwrap(),
            DriftProfile::RandomWalk { max_step: 5 }
        );
        assert_eq!(
            parse_drift_profile("burst").unwrap(),
            DriftProfile::Burst { magnitude: 20, probability: 0.01 }
        );
        assert_eq!(
            parse_drift_profile("burst:m=12,p=0.05").unwrap(),
            DriftProfile::Burst { magnitude: 12, probability: 0.05 }
        );
        assert!(parse_drift_profile("tides").is_err());
        assert!(parse_drift_profile("walk:fast").is_err());
        assert!(parse_drift_profile("burst:p=1.5").is_err());
    }
}
