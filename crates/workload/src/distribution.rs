//! Client-count distributions (paper §V).

use crate::zipf::ZipfTable;
use rand::RngCore;

/// A distribution over per-tenant concurrent client counts.
///
/// All of the paper's workloads are expressed as client counts which a
/// [`crate::LoadModel`] then converts to loads; implementations must return
/// counts of at least 1.
///
/// The trait is object-safe so experiment configurations can hold
/// heterogeneous distribution lists.
pub trait ClientDistribution: std::fmt::Debug + Send + Sync {
    /// Draws one client count (≥ 1).
    fn sample_clients(&self, rng: &mut dyn RngCore) -> u32;

    /// Largest client count the distribution can produce.
    fn max_clients(&self) -> u32;

    /// Human-readable description, used to label experiment outputs.
    fn label(&self) -> String;
}

/// Discrete uniform client counts over `min..=max` — the paper's first
/// cluster experiment uses `UniformClients::new(1, 15)` (§V.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformClients {
    min: u32,
    max: u32,
}

impl UniformClients {
    /// Creates a uniform distribution over `min..=max` clients.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    #[must_use]
    pub fn new(min: u32, max: u32) -> Self {
        assert!(min >= 1, "tenants have at least one client");
        assert!(min <= max, "empty client range");
        UniformClients { min, max }
    }
}

impl ClientDistribution for UniformClients {
    fn sample_clients(&self, rng: &mut dyn RngCore) -> u32 {
        let span = u64::from(self.max - self.min) + 1;
        self.min + (rng.next_u64() % span) as u32
    }

    fn max_clients(&self) -> u32 {
        self.max
    }

    fn label(&self) -> String {
        format!("uniform({}..={})", self.min, self.max)
    }
}

/// Zipfian client counts over `1..=max` with exponent `s` — the paper's
/// second cluster experiment uses `ZipfClients::new(3.0, 52)` (§V.A).
#[derive(Debug, Clone)]
pub struct ZipfClients {
    table: ZipfTable,
}

impl ZipfClients {
    /// Creates a zipfian distribution with the given exponent over
    /// `1..=max` clients.
    #[must_use]
    pub fn new(exponent: f64, max: u32) -> Self {
        ZipfClients { table: ZipfTable::new(max, exponent) }
    }

    /// The underlying probability table.
    #[must_use]
    pub fn table(&self) -> &ZipfTable {
        &self.table
    }
}

impl ClientDistribution for ZipfClients {
    fn sample_clients(&self, rng: &mut dyn RngCore) -> u32 {
        self.table.sample(rng)
    }

    fn max_clients(&self) -> u32 {
        self.table.n()
    }

    fn label(&self) -> String {
        format!("zipf(s={}, 1..={})", self.table.exponent(), self.table.n())
    }
}

/// Constant client count; useful for worked examples and unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantClients(u32);

impl ConstantClients {
    /// Creates a distribution that always returns `clients`.
    ///
    /// # Panics
    ///
    /// Panics if `clients == 0`.
    #[must_use]
    pub fn new(clients: u32) -> Self {
        assert!(clients >= 1);
        ConstantClients(clients)
    }
}

impl ClientDistribution for ConstantClients {
    fn sample_clients(&self, _rng: &mut dyn RngCore) -> u32 {
        self.0
    }

    fn max_clients(&self) -> u32 {
        self.0
    }

    fn label(&self) -> String {
        format!("constant({})", self.0)
    }
}

/// Weighted mixture of component distributions; models heterogeneous tenant
/// populations (e.g. a bimodal small/large split).
#[derive(Debug)]
pub struct MixtureClients {
    components: Vec<(f64, Box<dyn ClientDistribution>)>,
    total_weight: f64,
}

impl MixtureClients {
    /// Creates a mixture from `(weight, distribution)` components.
    ///
    /// # Panics
    ///
    /// Panics if no components are given or any weight is non-positive.
    #[must_use]
    pub fn new(components: Vec<(f64, Box<dyn ClientDistribution>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        assert!(
            components.iter().all(|(w, _)| *w > 0.0 && w.is_finite()),
            "weights must be positive"
        );
        let total_weight = components.iter().map(|(w, _)| w).sum();
        MixtureClients { components, total_weight }
    }
}

impl ClientDistribution for MixtureClients {
    fn sample_clients(&self, rng: &mut dyn RngCore) -> u32 {
        // Map 53 random bits to [0, total_weight).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let mut pick = unit * self.total_weight;
        for (weight, dist) in &self.components {
            if pick < *weight {
                return dist.sample_clients(rng);
            }
            pick -= weight;
        }
        self.components.last().expect("validated non-empty").1.sample_clients(rng)
    }

    fn max_clients(&self) -> u32 {
        self.components.iter().map(|(_, d)| d.max_clients()).max().expect("validated non-empty")
    }

    fn label(&self) -> String {
        let parts: Vec<String> = self
            .components
            .iter()
            .map(|(w, d)| format!("{:.2}×{}", w / self.total_weight, d.label()))
            .collect();
        format!("mixture({})", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1234)
    }

    #[test]
    fn uniform_stays_in_range_and_covers_it() {
        let d = UniformClients::new(1, 15);
        let mut rng = rng();
        let mut seen = [false; 16];
        for _ in 0..10_000 {
            let c = d.sample_clients(&mut rng);
            assert!((1..=15).contains(&c));
            seen[c as usize] = true;
        }
        assert!(seen[1..=15].iter().all(|&s| s));
        assert_eq!(d.max_clients(), 15);
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let d = UniformClients::new(1, 4);
        let mut rng = rng();
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[d.sample_clients(&mut rng) as usize] += 1;
        }
        for (c, &count) in counts.iter().enumerate().skip(1) {
            let freq = count as f64 / n as f64;
            assert!((freq - 0.25).abs() < 0.01, "clients={c}: {freq}");
        }
    }

    #[test]
    fn zipf_skews_small() {
        let d = ZipfClients::new(3.0, 52);
        let mut rng = rng();
        let n = 10_000;
        let ones = (0..n).filter(|_| d.sample_clients(&mut rng) == 1).count();
        assert!(ones as f64 / n as f64 > 0.75);
        assert_eq!(d.max_clients(), 52);
    }

    #[test]
    fn constant_always_same() {
        let d = ConstantClients::new(7);
        let mut rng = rng();
        for _ in 0..100 {
            assert_eq!(d.sample_clients(&mut rng), 7);
        }
    }

    #[test]
    fn mixture_draws_from_all_components() {
        let d = MixtureClients::new(vec![
            (1.0, Box::new(ConstantClients::new(2)) as Box<dyn ClientDistribution>),
            (1.0, Box::new(ConstantClients::new(40))),
        ]);
        let mut rng = rng();
        let mut small = 0;
        let mut large = 0;
        for _ in 0..10_000 {
            match d.sample_clients(&mut rng) {
                2 => small += 1,
                40 => large += 1,
                other => panic!("unexpected sample {other}"),
            }
        }
        let ratio = small as f64 / (small + large) as f64;
        assert!((ratio - 0.5).abs() < 0.05);
        assert_eq!(d.max_clients(), 40);
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(UniformClients::new(1, 15).label(), "uniform(1..=15)");
        assert_eq!(ZipfClients::new(3.0, 52).label(), "zipf(s=3, 1..=52)");
        assert_eq!(ConstantClients::new(5).label(), "constant(5)");
        let m = MixtureClients::new(vec![(
            1.0,
            Box::new(ConstantClients::new(5)) as Box<dyn ClientDistribution>,
        )]);
        assert!(m.label().starts_with("mixture("));
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn uniform_rejects_zero_min() {
        let _ = UniformClients::new(0, 5);
    }

    #[test]
    fn distributions_are_object_safe() {
        let list: Vec<Box<dyn ClientDistribution>> = vec![
            Box::new(UniformClients::new(1, 15)),
            Box::new(ZipfClients::new(3.0, 52)),
            Box::new(ConstantClients::new(3)),
        ];
        let mut rng = rng();
        for d in &list {
            assert!(d.sample_clients(&mut rng) >= 1);
        }
    }
}
