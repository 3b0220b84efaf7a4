//! CubeFit configuration.

use crate::class::Classifier;
use crate::error::{Error, Result};

/// How tiny (class-`K`) tenants are aggregated into multi-replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum TinyPolicy {
    /// The theoretical scheme of paper §III: multi-replicas of total size at
    /// most `1/α_K` (where `α_K` is the largest integer with
    /// `α_K² + α_K < K`), placed as replicas of class `α_K − γ + 1`.
    ///
    /// Requires `α_K ≥ γ`; [`CubeFitConfigBuilder::build`] rejects
    /// configurations where it is undefined (e.g. `K = 10, γ = 3`).
    Theoretical,
    /// The empirical scheme the paper's evaluation uses (§V.A): aggregate
    /// tiny replicas into multi-replicas capped at the class-`(K−1)` slot
    /// size `1/(K+γ−2)` and place them as class-`(K−1)` replicas.
    #[default]
    ClassKMinus1,
}

/// Which mature bins stage 1 may reuse for a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Stage1Eligibility {
    /// Only mature bins of a class strictly smaller than the replica's
    /// class, i.e. bins built for *larger* replicas (paper §III: "the
    /// algorithm uses \[the leftover space\] to place smaller replicas").
    #[default]
    SmallerClassBins,
    /// Any mature bin that m-fits the replica. Theorem 1 only relies on the
    /// m-fit predicate, so this is also robust; exposed for ablations.
    AnyMatureBin,
}

/// Configuration of the [`crate::CubeFit`] consolidator.
///
/// Construct via [`CubeFitConfig::builder`]:
///
/// ```
/// use cubefit_core::CubeFitConfig;
///
/// # fn main() -> Result<(), cubefit_core::Error> {
/// let config = CubeFitConfig::builder()
///     .replication(3)
///     .classes(10)
///     .build()?;
/// assert_eq!(config.gamma(), 3);
/// assert_eq!(config.classes(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CubeFitConfig {
    gamma: usize,
    classes: usize,
    tiny_policy: TinyPolicy,
    stage1: Stage1Eligibility,
    tiny_stage1: bool,
}

impl CubeFitConfig {
    /// Starts building a configuration. Defaults: `γ = 2`, `K = 10`,
    /// [`TinyPolicy::ClassKMinus1`], [`Stage1Eligibility::SmallerClassBins`].
    #[must_use]
    pub fn builder() -> CubeFitConfigBuilder {
        CubeFitConfigBuilder::default()
    }

    /// Replication factor `γ` (number of replicas per tenant; the placement
    /// tolerates `γ − 1` simultaneous server failures).
    #[must_use]
    pub fn gamma(&self) -> usize {
        self.gamma
    }

    /// Number of size classes `K`.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Tiny-tenant aggregation policy.
    #[must_use]
    pub fn tiny_policy(&self) -> TinyPolicy {
        self.tiny_policy
    }

    /// Stage-1 mature-bin eligibility rule.
    #[must_use]
    pub fn stage1_eligibility(&self) -> Stage1Eligibility {
        self.stage1
    }

    /// Whether tiny tenants attempt stage-1 reuse of mature-bin leftover
    /// space before opening multi-replica slots (§V.A's empirical
    /// optimization: "the first stage of the algorithm re-uses the left
    /// over space of server slots in the K−1 class").
    #[must_use]
    pub fn tiny_stage1(&self) -> bool {
        self.tiny_stage1
    }

    /// The size classifier induced by this configuration.
    #[must_use]
    pub fn classifier(&self) -> Classifier {
        Classifier::new(self.classes, self.gamma)
    }

    /// The class multi-replicas are treated as, and the size they are capped
    /// at, under the configured [`TinyPolicy`].
    ///
    /// Returns `(class_index, cap)`.
    #[must_use]
    pub fn tiny_target(&self) -> (usize, f64) {
        match self.tiny_policy {
            TinyPolicy::Theoretical => {
                let alpha = self.classifier().alpha().expect("validated at construction");
                (alpha - self.gamma + 1, 1.0 / alpha as f64)
            }
            TinyPolicy::ClassKMinus1 => {
                let tau = self.classes - 1;
                (tau, 1.0 / (tau + self.gamma - 1) as f64)
            }
        }
    }
}

impl Default for CubeFitConfig {
    fn default() -> Self {
        CubeFitConfig::builder().build().expect("default configuration is valid")
    }
}

/// Builder for [`CubeFitConfig`].
#[derive(Debug, Clone, Default)]
pub struct CubeFitConfigBuilder {
    gamma: Option<usize>,
    classes: Option<usize>,
    tiny_policy: TinyPolicy,
    stage1: Stage1Eligibility,
    tiny_stage1: Option<bool>,
}

impl CubeFitConfigBuilder {
    /// Sets the replication factor `γ` (typically 2 or 3).
    #[must_use]
    pub fn replication(mut self, gamma: usize) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Sets the number of size classes `K`. The paper suggests `K = 10` for
    /// large data centers and `K = 5` for smaller settings.
    #[must_use]
    pub fn classes(mut self, classes: usize) -> Self {
        self.classes = Some(classes);
        self
    }

    /// Sets the tiny-tenant aggregation policy.
    #[must_use]
    pub fn tiny_policy(mut self, policy: TinyPolicy) -> Self {
        self.tiny_policy = policy;
        self
    }

    /// Sets the stage-1 mature-bin eligibility rule.
    #[must_use]
    pub fn stage1_eligibility(mut self, rule: Stage1Eligibility) -> Self {
        self.stage1 = rule;
        self
    }

    /// Enables or disables stage-1 reuse for tiny tenants (default:
    /// enabled, per the paper's §V.A empirical note). Disabling routes
    /// every tiny tenant straight to the multi-replica path, as in the
    /// theoretical Algorithm 1 — exposed for ablations.
    #[must_use]
    pub fn tiny_stage1(mut self, enabled: bool) -> Self {
        self.tiny_stage1 = Some(enabled);
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidReplication`] if `γ < 2`;
    /// * [`Error::InvalidClasses`] if `K < 2`;
    /// * [`Error::TinyPolicyUnsupported`] if [`TinyPolicy::Theoretical`] was
    ///   requested but `α_K < γ` (the multi-replica target class would not
    ///   exist).
    pub fn build(self) -> Result<CubeFitConfig> {
        let gamma = self.gamma.unwrap_or(2);
        let classes = self.classes.unwrap_or(10);
        if gamma < 2 {
            return Err(Error::InvalidReplication { gamma });
        }
        if classes < 2 {
            return Err(Error::InvalidClasses {
                classes,
                reason: "CubeFit needs at least two classes (one regular, one tiny)",
            });
        }
        if self.tiny_policy == TinyPolicy::Theoretical {
            let alpha = Classifier::new(classes, gamma).alpha().unwrap_or(0);
            if alpha < gamma {
                return Err(Error::TinyPolicyUnsupported { classes, gamma, alpha });
            }
        }
        Ok(CubeFitConfig {
            gamma,
            classes,
            tiny_policy: self.tiny_policy,
            stage1: self.stage1,
            tiny_stage1: self.tiny_stage1.unwrap_or(true),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_recommendation() {
        let c = CubeFitConfig::default();
        assert_eq!(c.gamma(), 2);
        assert_eq!(c.classes(), 10);
        assert_eq!(c.tiny_policy(), TinyPolicy::ClassKMinus1);
        assert_eq!(c.stage1_eligibility(), Stage1Eligibility::SmallerClassBins);
        assert!(c.tiny_stage1());
    }

    #[test]
    fn builder_overrides_tiny_stage1() {
        let c = CubeFitConfig::builder().tiny_stage1(false).build().unwrap();
        assert!(!c.tiny_stage1());
    }

    #[test]
    fn rejects_invalid_gamma_and_classes() {
        assert!(matches!(
            CubeFitConfig::builder().replication(1).build(),
            Err(Error::InvalidReplication { gamma: 1 })
        ));
        assert!(matches!(
            CubeFitConfig::builder().classes(1).build(),
            Err(Error::InvalidClasses { classes: 1, .. })
        ));
    }

    #[test]
    fn theoretical_policy_needs_large_k() {
        // K = 10, γ = 3 → α = 2 < 3: rejected.
        assert!(CubeFitConfig::builder()
            .replication(3)
            .classes(10)
            .tiny_policy(TinyPolicy::Theoretical)
            .build()
            .is_err());
        // K = 13, γ = 3 → α = 3: accepted, multi-replicas land in class 1.
        let c = CubeFitConfig::builder()
            .replication(3)
            .classes(13)
            .tiny_policy(TinyPolicy::Theoretical)
            .build()
            .unwrap();
        assert_eq!(c.tiny_target(), (1, 1.0 / 3.0));
    }

    #[test]
    fn theoretical_policy_gamma2() {
        // K = 10, γ = 2 → α = 2 ≥ 2: multi-replicas as class 1, cap 1/2.
        let c = CubeFitConfig::builder()
            .replication(2)
            .classes(10)
            .tiny_policy(TinyPolicy::Theoretical)
            .build()
            .unwrap();
        assert_eq!(c.tiny_target(), (1, 0.5));
    }

    #[test]
    fn empirical_policy_targets_class_k_minus_1() {
        let c = CubeFitConfig::builder().replication(2).classes(5).build().unwrap();
        let (tau, cap) = c.tiny_target();
        assert_eq!(tau, 4);
        assert!((cap - 0.2).abs() < 1e-12); // 1/(4+2−1) = 1/5
    }

    #[test]
    fn classifier_reflects_config() {
        let c = CubeFitConfig::builder().replication(3).classes(7).build().unwrap();
        assert_eq!(c.classifier().classes(), 7);
        assert_eq!(c.classifier().gamma(), 3);
    }
}
