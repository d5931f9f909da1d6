//! The action modifier (policy `π_a`, paper §4 Eq. 11–13).
//!
//! When the slices' independently generated actions over-request a shared
//! resource, the domain managers raise the coordinating parameters `β_k`
//! (Eq. 14) and each agent's action modifier produces a modified action
//! `â` minimizing
//!
//! ```text
//! H = |â − a|² + Σ_k β_k â_k + c(s, â)                    (Eq. 13)
//! ```
//!
//! The paper trains a neural network offline on sampled `(s, a, β) → H`
//! tuples. Here the first two terms are minimized in closed form — for each
//! priced dimension the quadratic-plus-linear objective has the minimizer
//! `â_k = a_k − β_k / 2` — and the intractable cost term `c(s, â)` is
//! replaced by a *performance-retention floor*: the modifier never cuts a
//! priced dimension below a configurable fraction of the original request,
//! which is exactly the behaviour the paper needs from `π_a` (give resources
//! back when priced, but never so much that the slice's instantaneous
//! performance collapses — the failure mode of plain projection shown in
//! Table 3). An optional Gaussian perturbation reproduces the
//! "OnSlicing Md. Noise" robustness ablation.

use rand::Rng;
use serde::{Deserialize, Serialize};

use onslicing_nn::policy::standard_normal;
use onslicing_slices::{Action, ResourceKind};

/// Configuration of the action modifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModifierConfig {
    /// Fraction of the original request below which a priced dimension is
    /// never reduced (the stand-in for the cost term of Eq. 13).
    pub retention_floor: f64,
    /// Standard deviation of the Gaussian noise added to the modified action
    /// (0 disables it; 1.0 reproduces the paper's "Md. Noise" ablation).
    pub noise_std: f64,
}

impl ModifierConfig {
    /// The checks [`ActionModifier::new`] asserts, as a value a loader can
    /// refuse: the retention floor lies in `[0, 1]` and the noise is
    /// non-negative.
    pub fn validate(&self) -> Result<(), String> {
        let (floor, noise) = (self.retention_floor, self.noise_std);
        if !(0.0..=1.0).contains(&floor) {
            Err(format!("retention floor must be in [0, 1], got {floor}"))
        } else if !(0.0..).contains(&noise) {
            Err(format!("noise std must be non-negative, got {noise}"))
        } else {
            Ok(())
        }
    }
}

impl Default for ModifierConfig {
    fn default() -> Self {
        Self {
            retention_floor: 0.6,
            noise_std: 0.0,
        }
    }
}

/// The per-agent action modifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActionModifier {
    config: ModifierConfig,
}

impl ActionModifier {
    /// Creates a modifier with the given configuration.
    ///
    /// # Panics
    /// Panics if the retention floor is outside `[0, 1]` or the noise is
    /// negative.
    pub fn new(config: ModifierConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        Self { config }
    }

    /// Modifies the original action according to the coordinating parameters
    /// `betas` (indexed by [`ResourceKind::ALL`]).
    ///
    /// Dimensions that do not draw from a shared resource (MCS offsets,
    /// scheduler selectors) are returned unchanged.
    pub fn modify<R: Rng + ?Sized>(
        &self,
        original: &Action,
        betas: &[f64; 6],
        rng: &mut R,
    ) -> Action {
        let mut modified = *original;
        for resource in ResourceKind::ALL {
            let beta = betas[resource.index()].max(0.0);
            if beta == 0.0 && self.config.noise_std == 0.0 {
                continue;
            }
            let dim = resource.action_dim();
            let requested = original.get(dim);
            // Closed-form minimizer of (x - a)^2 + beta * x on [0, 1] ...
            let unconstrained = requested - beta / 2.0;
            // ... kept above the performance-retention floor.
            let floor = self.config.retention_floor * requested;
            let mut value = unconstrained.max(floor);
            if self.config.noise_std > 0.0 {
                value += self.config.noise_std * standard_normal(rng);
            }
            modified.set(dim, value);
        }
        modified
    }

    /// The Eq. 13 objective value of a candidate modification, with the cost
    /// term supplied by the caller (used in tests and ablation benches).
    pub fn objective(original: &Action, modified: &Action, betas: &[f64; 6], cost: f64) -> f64 {
        let distance = modified.squared_distance(original);
        let price: f64 = ResourceKind::ALL
            .iter()
            .map(|r| betas[r.index()] * modified.resource_share(*r))
            .sum();
        distance + price + cost
    }
}

impl Default for ActionModifier {
    fn default() -> Self {
        Self::new(ModifierConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    #[test]
    fn zero_betas_leave_the_action_unchanged() {
        let m = ActionModifier::default();
        let a = Action::uniform(0.4);
        assert_eq!(m.modify(&a, &[0.0; 6], &mut rng()), a);
    }

    #[test]
    fn positive_beta_reduces_only_the_priced_dimension() {
        let m = ActionModifier::default();
        let a = Action::uniform(0.5);
        let mut betas = [0.0; 6];
        betas[ResourceKind::EdgeCpu.index()] = 0.2;
        let modified = m.modify(&a, &betas, &mut rng());
        assert!(modified.cpu < a.cpu);
        assert!((modified.cpu - 0.4).abs() < 1e-12); // 0.5 - 0.2/2
        assert_eq!(modified.ul_bandwidth, a.ul_bandwidth);
        assert_eq!(modified.ram, a.ram);
        assert_eq!(modified.ul_mcs_offset, a.ul_mcs_offset);
    }

    #[test]
    fn retention_floor_bounds_the_reduction() {
        let m = ActionModifier::new(ModifierConfig {
            retention_floor: 0.6,
            noise_std: 0.0,
        });
        let a = Action::uniform(0.5);
        let mut betas = [0.0; 6];
        betas[ResourceKind::UplinkRadio.index()] = 10.0; // enormous price
        let modified = m.modify(&a, &betas, &mut rng());
        assert!(
            (modified.ul_bandwidth - 0.3).abs() < 1e-12,
            "floor = 0.6 * 0.5"
        );
    }

    #[test]
    fn modification_never_increases_priced_dimensions_without_noise() {
        let m = ActionModifier::default();
        let a = Action::uniform(0.7);
        let betas = [0.3; 6];
        let modified = m.modify(&a, &betas, &mut rng());
        for r in ResourceKind::ALL {
            assert!(modified.resource_share(r) <= a.resource_share(r) + 1e-12);
        }
        assert!(modified.resource_usage() < a.resource_usage());
    }

    #[test]
    fn modified_action_improves_the_priced_objective() {
        let m = ActionModifier::default();
        let a = Action::uniform(0.8);
        let betas = [0.5; 6];
        let modified = m.modify(&a, &betas, &mut rng());
        // With an identical (zero) cost term, the modified action must score
        // no worse than keeping the original.
        let kept = ActionModifier::objective(&a, &a, &betas, 0.0);
        let moved = ActionModifier::objective(&a, &modified, &betas, 0.0);
        assert!(moved < kept, "objective should improve: {moved} vs {kept}");
    }

    #[test]
    fn noise_perturbs_the_output() {
        let noisy = ActionModifier::new(ModifierConfig {
            retention_floor: 0.6,
            noise_std: 1.0,
        });
        let a = Action::uniform(0.5);
        let out = noisy.modify(&a, &[0.0; 6], &mut rng());
        assert_ne!(out, a);
        // Still a valid action after clamping.
        for v in out.to_vec() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn iterated_modification_with_rising_betas_reaches_feasibility() {
        // Two agents over-request CPU (0.8 each); a coordination loop with
        // the closed-form modifier must converge to a feasible split.
        let m = ActionModifier::default();
        let mut betas = [0.0; 6];
        let originals = [Action::uniform(0.8), Action::uniform(0.8)];
        let mut current = originals;
        let mut rounds = 0;
        // The dual ascent converges geometrically, so allow a small tolerance
        // on the capacity (the orchestrator falls back to projection for the
        // residual sliver).
        while current.iter().map(|a| a.cpu).sum::<f64>() > 1.0 + 1e-6 && rounds < 50 {
            betas[ResourceKind::EdgeCpu.index()] +=
                0.5 * (current.iter().map(|a| a.cpu).sum::<f64>() - 1.0);
            current = [
                m.modify(&originals[0], &betas, &mut rng()),
                m.modify(&originals[1], &betas, &mut rng()),
            ];
            rounds += 1;
        }
        assert!(
            current.iter().map(|a| a.cpu).sum::<f64>() <= 1.0 + 1e-6,
            "coordination should become feasible (floor 0.6 · 0.8 · 2 = 0.96 < 1)"
        );
        assert!(rounds < 40, "convergence took too long: {rounds} rounds");
    }

    #[test]
    #[should_panic(expected = "retention floor must be in [0, 1]")]
    fn invalid_floor_is_rejected() {
        let _ = ActionModifier::new(ModifierConfig {
            retention_floor: 1.5,
            noise_std: 0.0,
        });
    }
}
